//! E3 — §III-A: governance-chain gas per action and block capacity.
//!
//! Reports the gas each marketplace action consumes and sweeps the block
//! gas limit (ablation A4) to show its effect on transactions per block.
//! Throughput is not timed here: `benchmark/`'s `pipeline_transfer`
//! `tx_per_s` measures the transfer path end to end (submit, produce and
//! a follower's apply).
//!
//! `cargo run --release -p pds2-bench --bin exp_chain_throughput`

use pds2_bench::print_table;
use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::erc20::Erc20Op;
use pds2_chain::erc721::{AssetKind, Erc721Op};
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::{sha256, KeyPair};

fn fresh_chain(alice: &KeyPair, gas_limit: u64) -> Blockchain {
    Blockchain::new(
        vec![KeyPair::from_seed(9000)],
        &[(Address::of(&alice.public), u128::MAX / 2)],
        ContractRegistry::new(),
        ChainConfig {
            block_gas_limit: gas_limit,
            max_txs_per_block: usize::MAX,
            ..Default::default()
        },
    )
}

fn signed(alice: &KeyPair, nonce: u64, kind: TxKind, gas_limit: u64) -> SignedTransaction {
    Transaction {
        from: alice.public.clone(),
        nonce,
        kind,
        gas_limit,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(alice)
}

/// The gas of `make(1)`, sent after `make(0)` (which for ERC-20 creates
/// the token the transfer moves).
fn gas_per_tx(label: &str, make: impl Fn(u64) -> TxKind) -> Vec<String> {
    let alice = KeyPair::from_seed(1);
    let mut chain = fresh_chain(&alice, u64::MAX);
    let hashes: Vec<_> = (0..2)
        .map(|nonce| {
            let tx = signed(&alice, nonce, make(nonce), 1_000_000);
            chain.submit(tx).expect("admission")
        })
        .collect();
    chain.produce_until_empty(10);
    let gas = chain.receipt(&hashes[1]).expect("executed").gas_used;
    vec![label.to_string(), gas.to_string()]
}

fn main() {
    println!("E3: governance-chain gas per action (single validator)\n");
    let bob = Address::of(&KeyPair::from_seed(2).public);

    let rows = vec![
        gas_per_tx("native transfer", |_| TxKind::Transfer {
            to: bob,
            amount: 1,
        }),
        gas_per_tx("erc20 transfer", |nonce| {
            if nonce == 0 {
                TxKind::Erc20(Erc20Op::Create {
                    symbol: "B".into(),
                    initial_supply: u128::MAX / 2,
                })
            } else {
                TxKind::Erc20(Erc20Op::Transfer {
                    token: pds2_chain::erc20::TokenId(0),
                    to: bob,
                    amount: 1,
                })
            }
        }),
        gas_per_tx("erc721 mint", |nonce| {
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: sha256(&nonce.to_le_bytes()),
                label: String::new(),
            })
        }),
    ];
    print_table(&["action", "gas/tx"], &rows);

    // Ablation A4: block gas limit vs txs per block.
    println!("\nA4: block gas limit vs transactions per block");
    let mut rows = Vec::new();
    for &limit in &[1_000_000u64, 5_000_000, 30_000_000, 120_000_000] {
        let alice = KeyPair::from_seed(1);
        let mut chain = fresh_chain(&alice, limit);
        for nonce in 0..500u64 {
            let transfer = TxKind::Transfer { to: bob, amount: 1 };
            chain
                .submit(signed(&alice, nonce, transfer, 50_000))
                .unwrap();
        }
        let blocks = chain.produce_until_empty(10_000);
        rows.push(vec![
            limit.to_string(),
            blocks.to_string(),
            format!("{:.0}", 500.0 / blocks as f64),
        ]);
    }
    print_table(&["block_gas_limit", "blocks", "tx/block"], &rows);
    println!(
        "\nshape: token ops cost a fixed gas premium over native transfers; \
         tx/block scales linearly with the block gas limit. Throughput: \
         benchmark/ pipeline_transfer tx_per_s."
    );
}
