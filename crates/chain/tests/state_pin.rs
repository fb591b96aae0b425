//! One state transition, every byte it leaves behind pinned.
//!
//! A fixed list of transactions goes straight through
//! `WorldState::apply_transaction_env` (no block, pool or journal around
//! it): every `TxKind` on its success path and on each failure path, free
//! and fee-paying. What is compared against constants: every receipt and
//! the state root after every step, the value bytes of a fixed list of
//! present and absent leaves (each proved against the final root), supply
//! and burn, on both commitment backends, and the obs trace of the run. A
//! change to `state/` that alters a receipt, an error string, a leaf, a
//! marked key or the order of two balance movements fails here. This is to
//! `state/` what `pipeline.rs` is to `chain/` and
//! `crates/core/tests/lifecycle_pin.rs` to `marketplace/`.
//!
//! One test per process: captures are process-global.

use pds2_chain::erc721::AssetKind;
use pds2_chain::state::{BlockEnv, WorldState};
use pds2_chain::{
    gas, verify_proof, Address, BackendKind, CallCtx, Contract, ContractError, ContractRegistry,
    Erc20Op, Erc721Op, LeafKey, NftId, TokenId, Transaction, TxKind,
};
use pds2_crypto::codec::Encode;
use pds2_crypto::sha256::{sha256, Digest, Sha256};
use pds2_crypto::KeyPair;
use pds2_obs as obs;

// Generated at d67226f, the commit before `state.rs` was cut along the
// transition. `TRACE_DIGEST` was regenerated once, when the `state/commit`
// span stopped carrying `nodes_hashed` (a count that follows the backend;
// PR 25): the event count and every other byte of the trace held.
// Every constant but the supply and the burn was regenerated once more when
// the token operations the marketplace never sends were retired: their 24
// steps and the allowance probes went, the two catch-all mints became a
// dataset and a code mint, and an NFT leaf lost its trailing approval byte.
// The values were recorded on the parent with only those edits.
const STEPS: usize = 53;
const STEPS_SHA: &str = "bff4bcde1521b852f8ce036abbe09f407953619dc538183826877aaa3c57e5a6";
const LEAVES_SHA: &str = "252a05646de59abb81ce512ed932102c4b9319990127693e520ac9fd2416b663";
const PROBED: usize = 85;
const PRESENT: usize = 29;
const SUPPLY: u128 = 53_486_444;
const BURNED: u128 = 1_513_556;
const TRACE_DIGEST: &str = "2190c3acc848532c4b537acbc91799f6e36c22ccdae3ef03b6fbe8e140bea6a3";
const TRACE_EVENTS: u64 = 94;

const GENESIS: u128 = 55_000_000;

fn named(tag: &str) -> Address {
    Address(sha256(tag.as_bytes()))
}

/// Holds value and pays it out. The first input byte selects the method;
/// methods 4 and 5 read a token id from the next eight.
struct Vault(u64);

impl Vault {
    fn construct(_: Address, init: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        match init {
            [] => Ok(Box::new(Vault(0))),
            _ => Err(ContractError::BadInput("vault takes no init".into())),
        }
    }
}

impl Contract for Vault {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(100)?;
        self.0 += 1;
        ctx.emit("vault.call", format!("n={} value={}", self.0, ctx.value))?;
        let token = || {
            let id = input.get(1..9).and_then(|b| b.try_into().ok());
            id.map(|b| TokenId(u64::from_le_bytes(b)))
                .ok_or_else(|| ContractError::BadInput("token id".into()))
        };
        match input.first() {
            // Keep the attached value.
            Some(0) => {}
            Some(1) => return Err(ContractError::Revert("deliberate".into())),
            Some(2) => {
                ctx.transfer_out(ctx.sender, 100);
                ctx.transfer_out(named("payee"), 200);
            }
            Some(3) => {
                ctx.transfer_out(ctx.sender, 1);
                ctx.transfer_out(named("payee"), u128::MAX);
            }
            // Everything the vault holds of one token, in two halves.
            Some(4) => {
                let (token, held) = (token()?, ctx.own_token_balance(token()?));
                ctx.transfer_token_out(token, ctx.sender, held / 2);
                ctx.transfer_token_out(token, named("payee"), held - held / 2);
            }
            Some(5) => {
                let (token, held) = (token()?, ctx.own_token_balance(token()?));
                ctx.transfer_token_out(token, ctx.sender, held);
                ctx.transfer_token_out(token, named("payee"), 1);
            }
            Some(6) => loop {
                ctx.charge_gas(10_000)?;
            },
            _ => return Err(ContractError::BadInput("unknown method".into())),
        }
        Ok(self.0.to_le_bytes().to_vec())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        let bytes = snapshot
            .try_into()
            .map_err(|_| ContractError::BadInput("vault snapshot".into()))?;
        self.0 = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// How much gas a step gets.
#[derive(Clone, Copy)]
enum Gas {
    Plenty,
    Limit(u64),
    /// The intrinsic cost of the transaction and this much more.
    Intrinsic(u64),
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The body is changed after signing.
    Forged,
    /// The nonce is three ahead of the account's.
    NonceAhead,
}

struct Step {
    who: usize,
    env: usize,
    /// `(max_fee_per_gas, priority_fee_per_gas)`.
    fee: (u64, u64),
    gas: Gas,
    fault: Fault,
    kind: TxKind,
    /// A fragment of the error a failing step must carry.
    err: Option<&'static str>,
}

/// A free transaction with plenty of gas that is expected to succeed.
fn step(who: usize, kind: TxKind) -> Step {
    Step {
        who,
        env: 0,
        fee: (0, 0),
        gas: Gas::Plenty,
        fault: Fault::None,
        kind,
        err: None,
    }
}

impl Step {
    fn fails(self, err: &'static str) -> Step {
        Step {
            err: Some(err),
            ..self
        }
    }
    fn gas(self, gas: Gas) -> Step {
        Step { gas, ..self }
    }
    fn fault(self, fault: Fault) -> Step {
        Step { fault, ..self }
    }
    fn paying(self, env: usize, max_fee: u64, tip: u64) -> Step {
        Step {
            env,
            fee: (max_fee, tip),
            ..self
        }
    }
}

const ALICE: usize = 0;
const BOB: usize = 1;
const CAROL: usize = 2;
/// Holds nothing at genesis: no account, no token entry.
const DAVE: usize = 3;
const COINBASE: usize = 4;

fn steps(addr: &[Address], vault: Address) -> Vec<Step> {
    use Gas::{Intrinsic, Limit};
    let (alice, bob, carol, dave) = (addr[ALICE], addr[BOB], addr[CAROL], addr[DAVE]);
    let (t0, t1, unknown) = (TokenId(0), TokenId(1), TokenId(77));
    let transfer = |to, amount| TxKind::Transfer { to, amount };
    let deploy = |code_id: &str, init: &[u8]| TxKind::Deploy {
        code_id: code_id.into(),
        init: init.to_vec(),
    };
    let call = |contract, method: u8, token: Option<TokenId>, value| TxKind::Call {
        contract,
        input: std::iter::once(method)
            .chain(token.into_iter().flat_map(|t| t.0.to_le_bytes()))
            .collect(),
        value,
    };
    let create = |symbol: &str, initial_supply| {
        TxKind::Erc20(Erc20Op::Create {
            symbol: symbol.into(),
            initial_supply,
        })
    };
    let send = |token, to, amount| TxKind::Erc20(Erc20Op::Transfer { token, to, amount });
    let mint_nft = |kind, content: &[u8]| {
        TxKind::Erc721(Erc721Op::Mint {
            kind,
            content: sha256(content),
            label: "pin".into(),
        })
    };
    let no_token = "insufficient token balance";
    let no_funds = "contract balance too low for payout";

    vec![
        // Deploy, native transfers, gas.
        step(ALICE, deploy("vault", &[])),
        step(ALICE, deploy("nope", &[])).fails("unknown contract type"),
        step(ALICE, deploy("vault", &[1, 2, 3])).fails("vault takes no init"),
        step(ALICE, transfer(bob, 1_000)),
        step(ALICE, transfer(named("fresh"), 5)),
        step(BOB, transfer(alice, u128::MAX / 3)).fails("insufficient balance"),
        // A tip with nothing to burn; a free block's coinbase is address zero.
        step(BOB, transfer(carol, 2))
            .paying(0, 3, 3)
            .gas(Limit(50_000)),
        step(ALICE, transfer(bob, 1))
            .fault(Fault::Forged)
            .fails("invalid signature"),
        step(ALICE, transfer(bob, 1))
            .fault(Fault::NonceAhead)
            .fails("bad nonce"),
        step(ALICE, transfer(bob, 1))
            .gas(Limit(100))
            .fails("out of gas (intrinsic)"),
        step(ALICE, create("LOW", 1))
            .gas(Intrinsic(gas::ERC20_OP - 1))
            .fails("out of gas"),
        step(ALICE, mint_nft(AssetKind::Dataset, b"low"))
            .gas(Intrinsic(gas::ERC721_OP - 1))
            .fails("out of gas"),
        step(ALICE, deploy("vault", &[]))
            .gas(Intrinsic(gas::DEPLOY - 1))
            .fails("out of gas"),
        step(ALICE, call(vault, 0, None, 0))
            .gas(Intrinsic(gas::CALL_BASE - 1))
            .fails("out of gas"),
        // Every ERC-20 op and error.
        step(ALICE, create("RWD", 1_000_000)),
        step(ALICE, create("ZERO", 0)),
        step(ALICE, send(t0, carol, 300)),
        // A sender with no entry: the failed transfer leaves a zero entry.
        step(DAVE, send(t0, alice, 1)).fails(no_token),
        step(ALICE, send(unknown, bob, 1)).fails("unknown token"),
        // Every ERC-721 op and error.
        step(ALICE, mint_nft(AssetKind::Dataset, b"d")),
        step(BOB, mint_nft(AssetKind::Dataset, b"d")).fails("content hash already minted"),
        step(ALICE, mint_nft(AssetKind::WorkloadCode, b"d")),
        // Calls.
        step(ALICE, call(vault, 0, None, 700)),
        step(ALICE, call(vault, 1, None, 50)).fails("reverted: deliberate"),
        step(ALICE, call(vault, 2, None, 0)),
        step(ALICE, call(vault, 3, None, 10)).fails(no_funds),
        step(ALICE, send(t0, vault, 401)),
        step(BOB, call(vault, 4, Some(t0), 0)),
        // Two payouts of zero from a token the vault holds nothing of: both
        // ends of each become explicit zero entries.
        step(BOB, call(vault, 4, Some(t1), 3)),
        step(ALICE, send(t0, vault, 10)),
        step(ALICE, call(vault, 5, Some(t0), 9)).fails(no_funds),
        step(ALICE, call(named("nowhere"), 0, None, 0)).fails("no contract at"),
        step(ALICE, call(vault, 6, None, 4))
            .gas(Limit(90_000))
            .fails("out of gas"),
        step(ALICE, call(vault, 9, None, 0)).fails("bad input: unknown method"),
        step(ALICE, call(vault, 4, None, 0)).fails("bad input: token id"),
        step(DAVE, call(vault, 0, None, 5)).fails("insufficient balance"),
        // Base fee 2 (environment 1) and base fee 7 (environment 2).
        step(ALICE, transfer(bob, 7)).paying(1, 5, 1),
        // The cap squeezes the tip to 0: everything paid is burned.
        step(ALICE, transfer(bob, 8)).paying(1, 2, 5),
        step(ALICE, transfer(bob, 9))
            .paying(2, 5, 1)
            .fails("fee cap 5 below base fee 7"),
        step(DAVE, transfer(bob, 1))
            .paying(1, 2, 0)
            .fails("insufficient funds for gas"),
        step(ALICE, transfer(bob, 1))
            .paying(1, 5, 1)
            .fault(Fault::Forged)
            .fails("invalid signature"),
        step(ALICE, transfer(bob, 1))
            .paying(1, 5, 1)
            .fault(Fault::NonceAhead)
            .fails("bad nonce"),
        step(BOB, transfer(alice, u128::MAX / 3))
            .paying(1, 4, 2)
            .gas(Limit(60_000))
            .fails("insufficient balance"),
        step(ALICE, transfer(bob, 1))
            .paying(1, 5, 1)
            .gas(Limit(100))
            .fails("out of gas (intrinsic)"),
        step(ALICE, send(t0, bob, 1))
            .paying(1, 3, 1)
            .gas(Intrinsic(gas::ERC20_OP - 1))
            .fails("out of gas"),
        step(ALICE, call(vault, 1, None, 20))
            .paying(1, 5, 3)
            .gas(Limit(200_000))
            .fails("reverted: deliberate"),
        step(ALICE, call(vault, 2, None, 0))
            .paying(1, 9, 1)
            .gas(Limit(200_000)),
        step(ALICE, send(t0, vault, 31))
            .paying(2, 7, 4)
            .gas(Limit(200_000)),
        step(CAROL, call(vault, 4, Some(t0), 0))
            .paying(2, 10, 1)
            .gas(Limit(200_000)),
        step(ALICE, call(vault, 5, Some(t0), 6))
            .paying(2, 10, 2)
            .gas(Limit(200_000))
            .fails(no_funds),
        step(ALICE, deploy("vault", &[]))
            .paying(2, 8, 8)
            .gas(Limit(200_000)),
        step(BOB, mint_nft(AssetKind::WorkloadCode, b"fee"))
            .paying(2, 10, 1)
            .gas(Limit(150_000)),
        // The coinbase is paid its own tip.
        step(COINBASE, transfer(dave, 11))
            .paying(1, 6, 2)
            .gas(Limit(50_000)),
    ]
}

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    steps: usize,
    /// SHA-256 over every receipt's `Debug` form and the root after it.
    steps_sha: String,
    /// SHA-256 over `(key, leaf_value)` of every probed key.
    leaves_sha: String,
    probed: usize,
    present: usize,
    supply: u128,
    burned: u128,
}

fn run(kind: BackendKind) -> Outcome {
    let keys: Vec<KeyPair> = [1, 2, 3, 4, 9].map(KeyPair::from_seed).into();
    let addr: Vec<Address> = keys.iter().map(|k| Address::of(&k.public)).collect();
    let coinbase = addr[COINBASE];
    let envs = [
        BlockEnv::free(1),
        BlockEnv {
            height: 2,
            base_fee: 2,
            coinbase,
        },
        BlockEnv {
            height: 3,
            base_fee: 7,
            coinbase,
        },
    ];
    let mut registry = ContractRegistry::new();
    registry.register("vault", Vault::construct);
    let mut st = WorldState::with_backend(kind);
    st.genesis_credit(addr[ALICE], 50_000_000);
    st.genesis_credit(addr[BOB], 2_000_000);
    st.genesis_credit(addr[CAROL], 2_000_000);
    st.genesis_credit(coinbase, 1_000_000);
    let vault = Address::contract(&addr[ALICE], 0);

    let mut log = Sha256::new();
    let mut deployed = Vec::new();
    let steps = steps(&addr, vault);
    for (i, step) in steps.iter().enumerate() {
        let sender = addr[step.who];
        let mut tx = Transaction {
            from: keys[step.who].public.clone(),
            nonce: st.nonce(&sender) + 3 * u64::from(step.fault == Fault::NonceAhead),
            kind: step.kind.clone(),
            gas_limit: 1_000_000,
            max_fee_per_gas: step.fee.0,
            priority_fee_per_gas: step.fee.1,
        };
        tx.gas_limit = match step.gas {
            Gas::Plenty => tx.gas_limit,
            Gas::Limit(limit) => limit,
            Gas::Intrinsic(more) => {
                gas::TX_BASE + tx.to_bytes().len() as u64 * gas::PER_BYTE + more
            }
        };
        let mut signed = tx.sign(&keys[step.who]);
        if step.fault == Fault::Forged {
            signed.tx.gas_limit += 1;
        }
        let receipt = st.apply_transaction_env(
            &registry,
            &signed,
            &envs[step.env],
            i as u32,
            obs::TraceCtx::NONE,
        );
        let root = st.state_root();
        println!("{i:2} {root} {receipt:?}");
        match (step.err, &receipt.error) {
            (None, None) => assert!(receipt.success, "step {i}"),
            (Some(want), Some(got)) => assert!(got.contains(want), "step {i}: {got}"),
            (want, got) => panic!("step {i}: expected {want:?}, got {got:?}"),
        }
        deployed.extend(receipt.deployed);
        assert_eq!(
            st.total_native_supply(),
            st.recompute_native_supply(),
            "step {i}"
        );
        assert_eq!(st.total_native_supply() + st.burned(), GENESIS, "step {i}");
        log.update(format!("{receipt:?}").as_bytes());
        log.update(root.as_bytes());
    }

    // Every kind of key over every address and id the run names, and some
    // it does not.
    assert_eq!((deployed.len(), deployed[0]), (2, vault));
    let mut everyone = addr.clone();
    everyone.extend(deployed);
    everyone.push(Address(Digest::ZERO));
    everyone.extend(["fresh", "payee", "nowhere", "nobody"].map(named));
    let tokens = [TokenId(0), TokenId(1), TokenId(2), TokenId(77)];
    let mut probes = vec![LeafKey::Erc20Next, LeafKey::Erc721Next, LeafKey::Burned];
    probes.extend((0..5).chain([99]).map(|n| LeafKey::Erc721Token(NftId(n))));
    probes.extend(tokens.map(LeafKey::Erc20Meta));
    for a in &everyone {
        probes.extend([LeafKey::Account(*a), LeafKey::Contract(*a)]);
        for t in tokens {
            probes.push(LeafKey::Erc20Bal(t, *a));
        }
    }
    let root = st.state_root();
    let mut leaves = Sha256::new();
    let mut present = 0;
    for key in &probes {
        let (value, proof) = st.prove_leaf(key);
        assert_eq!(value, st.leaf_value(key), "{key:?}");
        assert!(
            verify_proof(&root, &key.digest(), value.as_deref(), &proof),
            "{key:?}"
        );
        present += usize::from(value.is_some());
        leaves.update(format!("{key:?} {value:?}").as_bytes());
    }
    Outcome {
        steps: steps.len(),
        steps_sha: log.finalize().to_hex(),
        leaves_sha: leaves.finalize().to_hex(),
        probed: probes.len(),
        present,
        supply: st.total_native_supply(),
        burned: st.burned(),
    }
}

#[test]
fn every_transaction_kind_and_failure_repeats_byte_for_byte() {
    let _guard = obs::test_lock();
    let traced = |kind| {
        let cap = obs::capture(obs::SinkKind::Null);
        let out = run(kind);
        (out, cap.finish())
    };
    let smt = run(BackendKind::Smt);
    let (traced_smt, report) = traced(BackendKind::Smt);
    let (rehash, rehash_report) = traced(BackendKind::FullRehash);
    assert_eq!(smt, traced_smt, "a capture must not change behaviour");
    assert_eq!(smt, rehash, "backends disagree");
    assert_eq!(
        (rehash_report.digest, rehash_report.events),
        (report.digest.clone(), report.events),
        "the trace digest must not follow the state backend"
    );
    let pinned = Outcome {
        steps: STEPS,
        steps_sha: STEPS_SHA.into(),
        leaves_sha: LEAVES_SHA.into(),
        probed: PROBED,
        present: PRESENT,
        supply: SUPPLY,
        burned: BURNED,
    };
    assert_eq!(
        (smt, report.digest.as_str(), report.events),
        (pinned, TRACE_DIGEST, TRACE_EVENTS)
    );
}
