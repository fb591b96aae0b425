use super::*;
use crate::contract::test_support::Counter;
use crate::contract::ContractRegistry;
use crate::erc20::Erc20Op;
use crate::erc721::Erc721Op;
use crate::gas;
use crate::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::sha256::sha256;
use pds2_crypto::KeyPair;

fn registry() -> ContractRegistry {
    let mut reg = ContractRegistry::new();
    reg.register("counter", Counter::construct);
    reg
}

fn make_tx(kp: &KeyPair, nonce: u64, kind: TxKind) -> SignedTransaction {
    Transaction {
        from: kp.public.clone(),
        nonce,
        kind,
        gas_limit: 1_000_000,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(kp)
}

fn funded_state(kp: &KeyPair, amount: u128) -> WorldState {
    let mut st = WorldState::new();
    st.genesis_credit(Address::of(&kp.public), amount);
    st
}

#[test]
fn native_transfer_moves_funds_and_bumps_nonce() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let tx = make_tx(
        &alice,
        0,
        TxKind::Transfer {
            to: bob,
            amount: 400,
        },
    );
    let r = st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(r.success, "{:?}", r.error);
    assert_eq!(st.balance(&bob), 400);
    assert_eq!(st.balance(&Address::of(&alice.public)), 600);
    assert_eq!(st.nonce(&Address::of(&alice.public)), 1);
    assert_eq!(r.events.len(), 1);
    assert!(r.gas_used >= gas::TX_BASE);
}

#[test]
fn overdraft_fails_but_consumes_nonce() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 100);
    let reg = registry();
    let tx = make_tx(
        &alice,
        0,
        TxKind::Transfer {
            to: bob,
            amount: 400,
        },
    );
    let r = st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert_eq!(st.balance(&bob), 0);
    assert_eq!(st.nonce(&Address::of(&alice.public)), 1, "nonce consumed");
}

#[test]
fn bad_nonce_rejected_without_state_change() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let tx = make_tx(&alice, 5, TxKind::Transfer { to: bob, amount: 1 });
    let r = st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("bad nonce"));
    assert_eq!(st.nonce(&Address::of(&alice.public)), 0, "nonce unchanged");
}

#[test]
fn forged_signature_rejected() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let mut tx = make_tx(&alice, 0, TxKind::Transfer { to: bob, amount: 1 });
    if let TxKind::Transfer { amount, .. } = &mut tx.tx.kind {
        *amount = 999; // tamper after signing
    }
    let r = st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert_eq!(r.error.unwrap(), "invalid signature");
    assert_eq!(st.balance(&bob), 0);
}

#[test]
fn deploy_and_call_contract() {
    let alice = KeyPair::from_seed(1);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let deploy = make_tx(
        &alice,
        0,
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
    );
    let r = st.apply_transaction_env(
        &reg,
        &deploy,
        &BlockEnv::free(1),
        0,
        pds2_obs::TraceCtx::NONE,
    );
    assert!(r.success, "{:?}", r.error);
    let addr = r.deployed.unwrap();
    assert!(st.contracts.contains_key(&addr));
    assert_eq!(st.contracts[&addr].code_id, "counter");

    let call = make_tx(
        &alice,
        1,
        TxKind::Call {
            contract: addr,
            input: vec![0], // increment
            value: 0,
        },
    );
    let r = st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
    assert!(r.success, "{:?}", r.error);
    assert_eq!(u64::from_le_bytes(r.output[..8].try_into().unwrap()), 1);
    assert_eq!(r.events.len(), 1);
    assert_eq!(r.events[0].block_height, 2);
}

#[test]
fn reverted_call_rolls_back_contract_state() {
    let alice = KeyPair::from_seed(1);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let deploy = make_tx(
        &alice,
        0,
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
    );
    let addr = st
        .apply_transaction_env(
            &reg,
            &deploy,
            &BlockEnv::free(1),
            0,
            pds2_obs::TraceCtx::NONE,
        )
        .deployed
        .unwrap();
    let snap_before = st.contract_snapshot(&addr).unwrap();

    let call = make_tx(
        &alice,
        1,
        TxKind::Call {
            contract: addr,
            input: vec![1], // increment by 100 then revert
            value: 0,
        },
    );
    let r = st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("deliberate"));
    assert_eq!(
        st.contract_snapshot(&addr).unwrap(),
        snap_before,
        "state rolled back"
    );
    assert!(r.events.is_empty(), "events dropped on revert");
}

#[test]
fn value_escrow_and_payout() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let deploy = make_tx(
        &alice,
        0,
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
    );
    let addr = st
        .apply_transaction_env(
            &reg,
            &deploy,
            &BlockEnv::free(1),
            0,
            pds2_obs::TraceCtx::NONE,
        )
        .deployed
        .unwrap();

    // Attach 100; contract pays back half.
    let call = make_tx(
        &alice,
        1,
        TxKind::Call {
            contract: addr,
            input: vec![2],
            value: 100,
        },
    );
    let r = st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
    assert!(r.success, "{:?}", r.error);
    assert_eq!(st.balance(&addr), 50);
    assert_eq!(st.balance(&alice_addr), 950);
    assert_eq!(st.total_native_supply(), 1000, "conservation");
}

#[test]
fn overspending_contract_reverts_everything() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let deploy = make_tx(
        &alice,
        0,
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
    );
    let addr = st
        .apply_transaction_env(
            &reg,
            &deploy,
            &BlockEnv::free(1),
            0,
            pds2_obs::TraceCtx::NONE,
        )
        .deployed
        .unwrap();
    let call = make_tx(
        &alice,
        1,
        TxKind::Call {
            contract: addr,
            input: vec![3], // schedules absurd payout
            value: 10,
        },
    );
    let r = st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert_eq!(st.balance(&alice_addr), 1000, "escrow refunded");
    assert_eq!(st.balance(&addr), 0);
}

#[test]
fn token_payouts_that_cannot_be_paid_revert_instead_of_panicking() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let mut nonce = 0;
    let mut send = |st: &mut WorldState, kind| {
        let tx = make_tx(&alice, nonce, kind);
        nonce += 1;
        st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE)
    };
    let deployed = send(
        &mut st,
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
    );
    let contract = deployed.deployed.unwrap();
    let token = crate::erc20::TokenId(0);
    // The contract ends up holding all `u128::MAX` of token 0.
    for op in [
        Erc20Op::Create {
            symbol: "MAX".into(),
            initial_supply: u128::MAX,
        },
        Erc20Op::Transfer {
            token,
            to: contract,
            amount: u128::MAX,
        },
    ] {
        let r = send(&mut st, TxKind::Erc20(op));
        assert!(r.success, "{:?}", r.error);
    }
    let payouts = |list: &[(u64, u128)]| TxKind::Call {
        contract,
        input: std::iter::once(4)
            .chain(list.iter().flat_map(|(token, amount)| {
                let mut payout = token.to_le_bytes().to_vec();
                payout.extend(amount.to_le_bytes());
                payout
            }))
            .collect(),
        value: 5,
    };
    // A payout of 0 in a token that does not exist; payouts whose sum is
    // past `u128::MAX`, which a saturating total would wave through.
    for list in [&[(999, 0)][..], &[(0, u128::MAX), (0, 1)]] {
        let snapshot = st.contract_snapshot(&contract);
        let r = send(&mut st, payouts(list));
        assert_eq!(
            r.error.as_deref(),
            Some("contract balance too low for payout")
        );
        assert_eq!(st.contract_snapshot(&contract), snapshot);
        assert_eq!(st.balance(&alice_addr), 1000, "escrow refunded");
        assert_eq!(st.erc20.balance_of(token, &contract), u128::MAX);
    }
    // What the contract can cover is paid.
    let r = send(&mut st, payouts(&[(0, u128::MAX - 1), (0, 1)]));
    assert!(r.success, "{:?}", r.error);
    assert_eq!(st.erc20.balance_of(token, &alice_addr), u128::MAX);
    assert_eq!(st.balance(&contract), 5);
}

#[test]
fn call_to_missing_contract_fails() {
    let alice = KeyPair::from_seed(1);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let call = make_tx(
        &alice,
        0,
        TxKind::Call {
            contract: Address::contract(&Address::of(&alice.public), 99),
            input: vec![0],
            value: 0,
        },
    );
    let r = st.apply_transaction_env(&reg, &call, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("no contract"));
}

#[test]
fn gas_limit_too_low_fails_intrinsic() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let tx = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer { to: bob, amount: 1 },
        gas_limit: 100, // far below TX_BASE
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    let r = st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("intrinsic"));
}

#[test]
fn token_ops_via_transactions() {
    let alice = KeyPair::from_seed(1);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let create = make_tx(
        &alice,
        0,
        TxKind::Erc20(crate::erc20::Erc20Op::Create {
            symbol: "RWD".into(),
            initial_supply: 500,
        }),
    );
    let r = st.apply_transaction_env(
        &reg,
        &create,
        &BlockEnv::free(1),
        0,
        pds2_obs::TraceCtx::NONE,
    );
    assert!(r.success);
    let token = crate::erc20::TokenId(u64::from_le_bytes(r.output[..8].try_into().unwrap()));
    assert_eq!(st.erc20.balance_of(token, &Address::of(&alice.public)), 500);
}

#[test]
fn base_fee_burns_and_tips_the_proposer() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let coinbase = Address::of(&KeyPair::from_seed(3).public);
    let mut st = funded_state(&alice, 100_000_000);
    let reg = registry();
    let mut tx = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer { to: bob, amount: 7 },
        gas_limit: 1_000_000,
        max_fee_per_gas: 5,
        priority_fee_per_gas: 1,
    };
    let signed = tx.clone().sign(&alice);
    let env = BlockEnv {
        height: 1,
        base_fee: 2,
        coinbase,
    };
    let root_before = st.state_root();
    let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
    assert!(r.success, "{:?}", r.error);
    // price = min(max_fee, base + tip) = min(5, 3) = 3.
    assert_eq!(r.effective_gas_price, 3);
    let gas = r.gas_used as u128;
    assert_eq!(st.burned(), gas * 2, "base-fee share burned");
    assert_eq!(st.balance(&coinbase), gas, "1/gas tip to the proposer");
    assert_eq!(st.balance(&bob), 7);
    assert_eq!(st.balance(&alice_addr), 100_000_000 - 7 - gas * 3);
    // Conservation now includes the burn.
    assert_eq!(st.total_native_supply() + st.burned(), 100_000_000);
    assert_ne!(st.state_root(), root_before);

    // A fee cap below the base fee fails without touching state.
    tx.nonce = 1;
    tx.max_fee_per_gas = 1;
    let signed = tx.sign(&alice);
    let supply = st.total_native_supply();
    let r = st.apply_transaction_env(&reg, &signed, &env, 1, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("below base fee"));
    assert_eq!(st.nonce(&alice_addr), 1, "nonce NOT consumed");
    assert_eq!(st.total_native_supply(), supply);
}

#[test]
fn failed_execution_still_pays_gas() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    // Fund enough for gas but not the transfer.
    let mut st = funded_state(&alice, 10_000_000);
    let reg = registry();
    let signed = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer {
            to: bob,
            amount: u128::MAX / 2,
        },
        gas_limit: 1_000_000,
        max_fee_per_gas: 2,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    let env = BlockEnv {
        height: 1,
        base_fee: 2,
        coinbase: Address(pds2_crypto::sha256(b"cb")),
    };
    let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert_eq!(r.effective_gas_price, 2);
    let gas = r.gas_used as u128;
    assert!(gas > 0);
    assert_eq!(st.balance(&alice_addr), 10_000_000 - gas * 2);
    assert_eq!(st.burned(), gas * 2, "whole fee burned (tip is zero)");
    assert_eq!(st.nonce(&alice_addr), 1, "nonce consumed");
}

#[test]
fn insufficient_funds_for_gas_fails_cleanly() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 100); // can't escrow 1M gas at 2/gas
    let reg = registry();
    let signed = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer { to: bob, amount: 1 },
        gas_limit: 1_000_000,
        max_fee_per_gas: 2,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    let env = BlockEnv {
        height: 1,
        base_fee: 2,
        coinbase: Address(pds2_crypto::sha256(b"cb")),
    };
    let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert!(r.error.unwrap().contains("insufficient funds for gas"));
    assert_eq!(st.balance(&alice_addr), 100, "nothing charged");
    assert_eq!(st.nonce(&alice_addr), 0, "nonce untouched");
}

#[test]
fn forged_signature_on_fee_path_moves_no_money() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 10_000_000);
    let reg = registry();
    let mut signed = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer { to: bob, amount: 1 },
        gas_limit: 100_000,
        max_fee_per_gas: 2,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    if let TxKind::Transfer { amount, .. } = &mut signed.tx.kind {
        *amount = 999; // tamper after signing
    }
    let env = BlockEnv {
        height: 1,
        base_fee: 2,
        coinbase: Address(pds2_crypto::sha256(b"cb")),
    };
    let root = st.state_root();
    let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
    assert!(!r.success);
    assert_eq!(r.error.as_deref(), Some("invalid signature"));
    assert_eq!((r.gas_used, r.effective_gas_price), (0, 0));
    assert_eq!(st.balance(&alice_addr), 10_000_000, "no gas escrowed");
    assert_eq!(st.nonce(&alice_addr), 0);
    assert_eq!(st.burned(), 0);
    assert_eq!(st.state_root(), root);
}

#[test]
fn leaf_digest_is_the_hash_of_the_leaf_value_for_every_kind() {
    let alice = KeyPair::from_seed(1);
    let alice_addr = Address::of(&alice.public);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 100_000_000);
    let reg = registry();
    let kinds = [
        TxKind::Erc20(Erc20Op::Create {
            symbol: "RWD".into(),
            initial_supply: 500,
        }),
        TxKind::Erc721(Erc721Op::Mint {
            kind: crate::erc721::AssetKind::Dataset,
            content: sha256(b"dataset"),
            label: "d".into(),
        }),
        TxKind::Deploy {
            code_id: "counter".into(),
            init: Vec::new(),
        },
        TxKind::Transfer { to: bob, amount: 7 },
    ];
    // A non-zero base fee, so the burn counter is a leaf too.
    let env = BlockEnv {
        height: 1,
        base_fee: 2,
        coinbase: bob,
    };
    let mut contract = None;
    for (nonce, kind) in kinds.into_iter().enumerate() {
        let mut tx = make_tx(&alice, nonce as u64, kind).tx;
        tx.max_fee_per_gas = 2;
        let r = st.apply_transaction_env(
            &reg,
            &tx.sign(&alice),
            &env,
            nonce as u32,
            pds2_obs::TraceCtx::NONE,
        );
        assert!(r.success, "{:?}", r.error);
        contract = contract.or(r.deployed);
    }
    let token = crate::erc20::TokenId(0);
    let absent = Address(sha256(b"nobody"));
    let present = [
        LeafKey::Account(alice_addr),
        LeafKey::Account(bob),
        LeafKey::Erc20Meta(token),
        LeafKey::Erc20Bal(token, alice_addr),
        LeafKey::Erc20Next,
        LeafKey::Erc721Token(crate::erc721::NftId(0)),
        LeafKey::Erc721Next,
        LeafKey::Contract(contract.unwrap()),
        LeafKey::Burned,
    ];
    let missing = [
        LeafKey::Account(absent),
        LeafKey::Erc20Bal(token, absent),
        LeafKey::Contract(absent),
    ];
    // The tree holds the hash of exactly these bytes under the present
    // keys and nothing under the missing ones.
    let root = st.state_root();
    for key in present.iter().chain(&missing) {
        let (value, proof) = st.prove_leaf(key);
        assert_eq!(value.is_some(), present.contains(key), "{key:?}");
        assert_eq!(value, st.leaf_value(key), "{key:?}");
        assert!(crate::smt::verify_proof(
            &root,
            &key.digest(),
            value.as_deref(),
            &proof
        ));
    }
}

#[test]
fn state_root_changes_with_every_mutation() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut st = funded_state(&alice, 1000);
    let reg = registry();
    let r0 = st.state_root();
    let tx = make_tx(&alice, 0, TxKind::Transfer { to: bob, amount: 1 });
    st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
    let r1 = st.state_root();
    assert_ne!(r0, r1);
    // Deterministic: same state, same root.
    assert_eq!(st.state_root(), r1);
}
