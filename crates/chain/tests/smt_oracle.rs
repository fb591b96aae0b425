//! An oracle for the sparse Merkle tree that shares no code with it.
//!
//! The full-rehash backend and every other differential check in the
//! workspace rebuild through `SmtTree::from_leaves`, so they compare the
//! tree with itself. `spec_root` / `spec_proof` below are the module-doc
//! rules of `pds2_chain::smt` written as plain recursion over a sorted
//! leaf slice: no store, no updates, each hash spelled out as the
//! portable compression from an IV derived here from its tag. The
//! known-answer lengths and hash counts were recorded with the `Arc`
//! pointer tree at commit `03fad62`, before the flat store replaced it;
//! the roots were re-recorded once, when each node hash became one
//! compression.
//!
//! The chain tests hold a chain's whole-state entries (genesis, snapshot
//! restore, backend switch), which build the tree in one pass, to the
//! full-rehash oracle and to a chain that committed incrementally, and a
//! block refused after it executed to the state it found.

use parking_lot::Mutex;
use pds2_chain::smt::{SmtProof, SmtTree};
use pds2_chain::{
    Account, Address, AssetKind, BackendKind, Block, BlockHeader, Blockchain, CallCtx, ChainConfig,
    ChainError, Contract, ContractError, ContractRegistry, Erc20Op, Erc721Op, LeafKey, NftId,
    TokenId, Transaction, TxKind,
};
use pds2_crypto::codec::Encode;
use pds2_crypto::sha256::{self, sha256, Digest};
use pds2_crypto::KeyPair;
use pds2_obs as obs;
use pds2_storage::chainlog::ChainLog;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Update = (Digest, Option<Digest>);
type Leaves = [(Digest, Digest)];

fn bit(key: &Digest, d: usize) -> bool {
    (key.as_bytes()[d >> 3] >> (7 - (d & 7))) & 1 == 1
}

/// The tag, zero-padded to one block, then `a ‖ b`, compressed without
/// padding from SHA-256's standard IV on the portable kernel: the tree's
/// `C(IV_tag, a ‖ b)` with the IV derived here, not read from the tree.
fn tagged(tag: &[u8], a: &Digest, b: &Digest) -> Digest {
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut blocks = [0u8; 128];
    blocks[..tag.len()].copy_from_slice(tag);
    blocks[64..96].copy_from_slice(a.as_bytes());
    blocks[96..].copy_from_slice(b.as_bytes());
    sha256::compress_portable(&mut state, &blocks);
    let mut out = [0u8; 32];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    Digest(out)
}

/// Splits leaves sharing bits `0..depth` on bit `depth`.
fn halves(depth: usize, leaves: &Leaves) -> (&Leaves, &Leaves) {
    leaves.split_at(leaves.partition_point(|(k, _)| !bit(k, depth)))
}

/// Root of the canonical tree over sorted, distinct `leaves`: empty is
/// zero, one key is a leaf wherever it sits, more split on the next bit.
fn spec_root(depth: usize, leaves: &Leaves) -> Digest {
    match leaves {
        [] => Digest::ZERO,
        [(k, v)] => tagged(b"pds2/smt/leaf", k, v),
        _ => {
            let (left, right) = halves(depth, leaves);
            tagged(
                b"pds2/smt/node",
                &spec_root(depth + 1, left),
                &spec_root(depth + 1, right),
            )
        }
    }
}

/// The proof `prove(key)` must return: the other half's root per level,
/// root-first, and whatever the key's path ends in.
fn spec_proof(leaves: &Leaves, key: &Digest) -> SmtProof {
    let (mut depth, mut rest, mut siblings) = (0, leaves, Vec::new());
    while rest.len() > 1 {
        let (left, right) = halves(depth, rest);
        let (mine, other) = if bit(key, depth) {
            (right, left)
        } else {
            (left, right)
        };
        siblings.push(spec_root(depth + 1, other));
        rest = mine;
        depth += 1;
    }
    SmtProof {
        siblings,
        found: rest.first().copied(),
    }
}

fn key(i: u64) -> Digest {
    sha256(&i.to_le_bytes())
}

fn val(i: u64) -> Digest {
    sha256(format!("value-{i}").as_bytes())
}

/// Checks the tree against the spec over `mirror`: root, `len()`, and
/// `get` / `prove` / verification for every probed key.
fn check_against_spec(tree: &SmtTree, mirror: &BTreeMap<Digest, Digest>, probes: &[Digest]) {
    let leaves: Vec<(Digest, Digest)> = mirror.iter().map(|(k, v)| (*k, *v)).collect();
    let root = spec_root(0, &leaves);
    assert_eq!(tree.root_hash(), root, "root");
    assert_eq!(tree.len(), leaves.len(), "len");
    assert_eq!(tree.is_empty(), leaves.is_empty());
    for k in probes {
        let proof = tree.prove(k);
        assert_eq!(tree.get(k), mirror.get(k).copied(), "get {k:?}");
        assert_eq!(proof, spec_proof(&leaves, k), "proof {k:?}");
        match mirror.get(k) {
            Some(v) => {
                assert!(proof.verify_inclusion(&root, k, v), "inclusion {k:?}");
                assert!(!proof.verify_absence(&root, k), "{k:?} is present");
            }
            None => {
                assert!(proof.verify_absence(&root, k), "absence {k:?}");
                assert!(
                    !proof.verify_inclusion(&root, k, &val(0)),
                    "{k:?} is absent"
                );
            }
        }
    }
}

fn apply_to_mirror(mirror: &mut BTreeMap<Digest, Digest>, updates: &[Update]) {
    for (k, v) in updates {
        match v {
            Some(v) => mirror.insert(*k, *v),
            None => mirror.remove(k),
        };
    }
}

/// Key universe of the random batches: wide enough that a batch of a
/// thousand leaves many keys absent, narrow enough that it repeats keys.
const UNIVERSE: u64 = 3_000;

/// One random batch: inserts and overwrites, rewrites of the value a key
/// already holds, deletes of present and of absent keys, and the same
/// key twice in a row (the last write must win).
fn random_batch(
    rng: &mut impl FnMut() -> u64,
    len: usize,
    mirror: &BTreeMap<Digest, Digest>,
) -> Vec<Update> {
    let mut ups: Vec<Update> = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng();
        let k = match ups.last() {
            Some(prev) if r.is_multiple_of(10) => prev.0,
            _ => key((r >> 8) % UNIVERSE),
        };
        let v = match (r >> 4) % 8 {
            0 | 1 => None,
            2 => mirror.get(&k).copied().or(Some(val(r))),
            _ => Some(val(r)),
        };
        ups.push((k, v));
    }
    ups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn tree_matches_spec_across_batches(
        seed in any::<u64>(),
        lens in proptest::collection::vec(
            prop_oneof![1usize..40, 900usize..1_024, 1_024usize..1_200, 2_000usize..3_000],
            2..6,
        ),
    ) {
        let mut state = seed;
        let mut rng = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut tree = SmtTree::new();
        let mut mirror = BTreeMap::new();
        for len in lens {
            let updates = random_batch(&mut rng, len, &mirror);
            apply_to_mirror(&mut mirror, &updates);
            // Probe keys the batch touched and keys drawn from anywhere.
            let mut probes: Vec<Digest> = (0..8).map(|_| key(rng() % UNIVERSE)).collect();
            probes.extend(updates.iter().rev().take(8).map(|u| u.0));
            tree.commit(updates);
            check_against_spec(&tree, &mirror, &probes);
        }
    }
}

/// The three known-answer steps: 1 000 fresh keys, a 300-update mixed
/// batch (deletes, same-value rewrites, overwrites, inserts of new keys,
/// absent-key deletes, repeated keys), a 2 000-update batch.
fn known_answer_batches() -> [Vec<Update>; 3] {
    let build = (0..1_000).map(|i| (key(i), Some(val(i)))).collect();
    let mixed = (0..300u64)
        .map(|j| {
            let i = (j * j * 31) % 1_400;
            let v = match j % 5 {
                0 => None,
                1 if i < 1_000 => Some(val(i)),
                _ => Some(val(10_000 + j)),
            };
            (key(i), v)
        })
        .collect();
    let large = (0..2_000u64)
        .map(|j| {
            let v = (j % 4 != 0).then(|| val(20_000 + j));
            (key((j * 13) % 3_000), v)
        })
        .collect();
    [build, mixed, large]
}

/// `(root, len, hashes returned by commit)` after each step: the counts
/// as the pointer tree computed them, the roots under the one-compression
/// hash.
const KNOWN_ANSWERS: [(&str, usize, u64); 3] = [
    (
        "b9a4b78f4a87adb9209acff13cc3df66908f0a44a0f1d1191026bcb5eb238f06",
        1_000,
        2_427,
    ),
    (
        "becff4e0f9f9668a7a084a8b55779a9b21c34798caee8d3259b2f9ad1bca50b8",
        1_027,
        648,
    ),
    (
        "1dd262c08170e5695a0cd019fcb3d437d927988714caa5ec7dcc0000b192993c",
        1_815,
        4_256,
    ),
];

#[test]
fn known_answers_recorded_at_the_parent_commit() {
    let mut tree = SmtTree::new();
    let mut mirror = BTreeMap::new();
    for (step, (updates, want)) in known_answer_batches()
        .into_iter()
        .zip(KNOWN_ANSWERS)
        .enumerate()
    {
        apply_to_mirror(&mut mirror, &updates);
        let hashed = tree.commit(updates);
        let got = (tree.root_hash().to_hex(), tree.len(), hashed);
        assert_eq!((got.0.as_str(), got.1, got.2), want, "step {step}");
        check_against_spec(
            &tree,
            &mirror,
            &[0, 1, 499, 999, 1_000, 1_399, 2_999, 5_000].map(key),
        );
    }
}

/// A contract for the chain below: input 0 bumps its count, input 1
/// bumps it and reverts.
struct Tally(u64);

impl Tally {
    fn construct(_: Address, _: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        Ok(Box::new(Tally(0)))
    }
}

impl Contract for Tally {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(100)?;
        self.0 += 1;
        match input {
            [0] => Ok(Vec::new()),
            _ => Err(ContractError::Revert("deliberate".into())),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        let bytes = snapshot
            .try_into()
            .map_err(|_| ContractError::BadInput("tally snapshot".into()))?;
        self.0 = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// The funded accounts of the chain below.
fn senders() -> Vec<KeyPair> {
    (0..3).map(|i| KeyPair::from_seed(300 + i)).collect()
}

const FUNDS: u128 = 1_000_000_000_000;
const SNAPSHOT_EVERY: u64 = 2;

/// A chain over `senders()` on commitment `kind`, with a base fee, so
/// the burned counter is a leaf too.
fn genesis(kind: BackendKind) -> Blockchain {
    let alloc: Vec<_> = senders()
        .iter()
        .map(|k| (Address::of(&k.public), FUNDS))
        .collect();
    let mut registry = ContractRegistry::new();
    registry.register("tally", Tally::construct);
    let mut chain = Blockchain::new(
        vec![KeyPair::from_seed(900)],
        &alloc,
        registry,
        ChainConfig {
            initial_base_fee: 3,
            ..ChainConfig::default()
        },
    );
    chain.state.set_backend(kind);
    chain
}

/// What one random transaction does; accounts and contracts are named by
/// index. Some of each kind fail: overdrawn transfers, transfers of a
/// token that does not exist, a mint of content already minted, a call
/// to no contract or one that reverts.
#[derive(Clone, Debug)]
enum Op {
    Native { to: usize, amount: u128 },
    Erc20Create,
    Erc20Transfer { token: u64, to: usize, amount: u128 },
    NftMint { content: u8 },
    Deploy,
    Call { which: u64, input: u8, value: u128 },
}

fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    let who = || 0usize..3;
    let op = prop_oneof![
        (who(), 0..FUNDS * 3 / 2).prop_map(|(to, amount)| Op::Native { to, amount }),
        Just(Op::Erc20Create),
        (0u64..3, who(), 0u128..1_500).prop_map(|(token, to, amount)| Op::Erc20Transfer {
            token,
            to,
            amount
        }),
        (0u8..4).prop_map(|content| Op::NftMint { content }),
        Just(Op::Deploy),
        (0u64..3, 0u8..2, 0u128..100).prop_map(|(which, input, value)| Op::Call {
            which,
            input,
            value
        }),
    ];
    (who(), op)
}

/// Sender 0's first transactions, so that a contract (its nonce 0), a
/// token and an NFT exist for the random ones to hit, and the chain is
/// two blocks long before they start.
fn prologue() -> Vec<(usize, Op)> {
    [
        Op::Deploy,
        Op::Erc20Create,
        Op::NftMint { content: 0 },
        Op::Call {
            which: 0,
            input: 0,
            value: 7,
        },
    ]
    .into_iter()
    .map(|op| (0, op))
    .collect()
}

fn payload(op: &Op, addrs: &[Address]) -> TxKind {
    match *op {
        Op::Native { to, amount } => TxKind::Transfer {
            to: addrs[to],
            amount,
        },
        Op::Erc20Create => TxKind::Erc20(Erc20Op::Create {
            symbol: "TOK".into(),
            initial_supply: 1_000,
        }),
        Op::Erc20Transfer { token, to, amount } => TxKind::Erc20(Erc20Op::Transfer {
            token: TokenId(token),
            to: addrs[to],
            amount,
        }),
        Op::NftMint { content } => TxKind::Erc721(Erc721Op::Mint {
            kind: AssetKind::Dataset,
            content: sha256(&[content]),
            label: "d".into(),
        }),
        Op::Deploy => TxKind::Deploy {
            code_id: "tally".into(),
            init: Vec::new(),
        },
        Op::Call {
            which,
            input,
            value,
        } => TxKind::Call {
            contract: Address::contract(&addrs[0], which),
            input: vec![input],
            value,
        },
    }
}

/// The `touched` count of every `state/commit` span `run` emits.
fn commits_touched(run: impl FnOnce()) -> Vec<u64> {
    let cap = obs::capture(obs::SinkKind::Ring(1 << 12));
    run();
    cap.finish()
        .entries
        .iter()
        .filter(|e| e.kind == obs::EventKind::SpanEnd && (e.domain, e.name) == ("state", "commit"))
        .map(|e| match e.fields[..] {
            [("touched", obs::Value::U64(n))] => n,
            _ => panic!("a commit span reports what it touched"),
        })
        .collect()
}

fn tip(chain: &Blockchain) -> (u64, Digest, Digest) {
    (chain.height(), chain.head_hash(), chain.state.state_root())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three ways a commitment starts without a tree, each a build
    /// over the whole state: a genesis, a snapshot restore and a backend
    /// switch. Their first roots equal the full-rehash oracle's and the
    /// live chain's, which has committed incrementally since genesis;
    /// the genesis root also equals the spec's over its account leaves.
    /// Nothing is marked before a first commit: the switched node's build
    /// leaves nothing to commit, and from the next block on its commits
    /// touch what the oracle's do.
    #[test]
    fn whole_state_entries_agree_with_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..14),
        switch_at in 0usize..8,
    ) {
        let _guard = obs::test_lock();
        let addrs: Vec<Address> = senders().iter().map(|k| Address::of(&k.public)).collect();
        let mut live = genesis(BackendKind::Smt);
        let mut oracle = genesis(BackendKind::FullRehash);
        let mut switched = genesis(BackendKind::Smt);

        // Genesis.
        let mut leaves: Vec<(Digest, Digest)> = addrs
            .iter()
            .map(|a| {
                let account = Account { balance: FUNDS, nonce: 0 };
                (LeafKey::Account(*a).digest(), sha256(&account.to_bytes()))
            })
            .collect();
        leaves.sort();
        let spec = spec_root(0, &leaves);
        prop_assert_eq!(live.state.state_root(), spec);
        prop_assert_eq!(oracle.state.state_root(), spec);

        // Random blocks, followed by the oracle and by a node that
        // switches to a fresh tree before block `switch_at`.
        let store = Arc::new(Mutex::new(ChainLog::new()));
        live.attach_store(store.clone(), SNAPSHOT_EVERY);
        let ops: Vec<(usize, Op)> = prologue().into_iter().chain(ops).collect();
        let blocks = ops.len().div_ceil(3);
        let switch_at = switch_at % blocks;
        let mut beneath = None;
        for (height, batch) in ops.chunks(3).enumerate() {
            // A transaction that cannot pay for its gas is included
            // without consuming its nonce: start from the state's.
            let mut nonces: Vec<u64> = addrs.iter().map(|a| live.state.nonce(a)).collect();
            for (from, op) in batch {
                let keys = &senders()[*from];
                let tx = Transaction {
                    from: keys.public.clone(),
                    nonce: nonces[*from],
                    kind: payload(op, &addrs),
                    gas_limit: 1_000_000,
                    max_fee_per_gas: 100,
                    priority_fee_per_gas: 1,
                }
                .sign(keys);
                nonces[*from] += 1;
                beneath.get_or_insert(tx.hash());
                let _ = live.submit(tx);
            }
            let block = live.produce_block();
            if height == switch_at {
                switched.state.set_backend(BackendKind::Smt);
            }
            // Every commit until the next block: the one inside the block
            // and any that reading the root then still has to make.
            let follow = |node: &mut Blockchain| {
                commits_touched(|| {
                    node.apply_external_block(&block).unwrap();
                    node.state.state_root();
                })
            };
            let (by_oracle, by_switched) = (follow(&mut oracle), follow(&mut switched));
            prop_assert_eq!(tip(&oracle), tip(&live), "oracle at {}", height);
            prop_assert_eq!(tip(&switched), tip(&live), "switched at {}", height);
            if height == switch_at {
                // The build leaves nothing behind to commit.
                prop_assert_eq!(by_switched.len(), 1, "commits at the switch");
            } else if height > switch_at {
                prop_assert_eq!(by_switched, by_oracle, "touched at {}", height);
            }
        }

        // Restores, on either backend: the first root is checked against
        // the header at the snapshot's height, the blocks above it replay
        // incrementally, and the tip is the live chain's.
        for kind in [BackendKind::Smt, BackendKind::FullRehash] {
            let disk = Arc::new(Mutex::new(store.lock().clone()));
            let recovered = Blockchain::recover_from_store(genesis(kind), disk, SNAPSHOT_EVERY);
            prop_assert!(recovered.receipt(&beneath.unwrap()).is_none(), "restored from the snapshot");
            prop_assert_eq!(tip(&recovered), tip(&live));
        }
    }
}

/// Every leaf a block of `ops` from `senders()` can write: the senders',
/// the proposer's and each possible contract's account, contract and
/// token balances, every token's metadata and NFT, both counters and the
/// burn.
fn leaves_a_block_can_write(ops: usize) -> Vec<LeafKey> {
    let mut owners: Vec<Address> = senders().iter().map(|k| Address::of(&k.public)).collect();
    let contracts: Vec<Address> = owners
        .iter()
        .flat_map(|a| (0..ops as u64).map(|n| Address::contract(a, n)))
        .collect();
    owners.push(Address::of(&KeyPair::from_seed(900).public));
    owners.extend(contracts);
    let mut keys = vec![LeafKey::Erc20Next, LeafKey::Erc721Next, LeafKey::Burned];
    for token in (0..ops as u64).map(TokenId) {
        keys.push(LeafKey::Erc20Meta(token));
        keys.extend(owners.iter().map(|a| LeafKey::Erc20Bal(token, *a)));
    }
    keys.extend((0..ops as u64).map(|id| LeafKey::Erc721Token(NftId(id))));
    for a in &owners {
        keys.extend([LeafKey::Account(*a), LeafKey::Contract(*a)]);
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A block of random operations (transfers that go through or overdraw,
    /// token creates and transfers, mints, deploys, calls that pay, revert
    /// or hit no contract), re-signed by its proposer over a root with one
    /// bit flipped: on either backend, applying it executes every
    /// transaction and is then refused, and every leaf it could have
    /// written, the root, the supply and the burn are what they were
    /// before it. The honest block then applies.
    #[test]
    fn a_block_refused_after_it_executed_leaves_every_leaf_as_it_was(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let addrs: Vec<Address> = senders().iter().map(|k| Address::of(&k.public)).collect();
        let mut producer = genesis(BackendKind::Smt);
        let mut blocks = Vec::new();
        for batch in [prologue(), ops] {
            let mut nonces: Vec<u64> = addrs.iter().map(|a| producer.state.nonce(a)).collect();
            for (from, op) in &batch {
                let keys = &senders()[*from];
                let tx = Transaction {
                    from: keys.public.clone(),
                    nonce: nonces[*from],
                    kind: payload(op, &addrs),
                    gas_limit: 1_000_000,
                    max_fee_per_gas: 100,
                    priority_fee_per_gas: 1,
                }
                .sign(keys);
                nonces[*from] += 1;
                let _ = producer.submit(tx);
            }
            blocks.push(producer.produce_block());
        }
        let honest = &blocks[1];
        let h = &honest.header;
        let mut root = h.state_root;
        root.0[0] ^= 1;
        let forged = Block {
            header: BlockHeader::new_signed(
                &KeyPair::from_seed(900),
                h.height,
                h.parent,
                root,
                h.tx_root,
                h.timestamp,
                h.base_fee,
                h.gas_used,
            ),
            transactions: honest.transactions.clone(),
        };
        let probes = leaves_a_block_can_write(4 + honest.transactions.len());
        let view = |node: &Blockchain| {
            let values: Vec<_> = probes.iter().map(|k| node.state.leaf_value(k)).collect();
            let state = &node.state;
            (values, tip(node), state.total_native_supply(), state.burned())
        };
        for kind in [BackendKind::Smt, BackendKind::FullRehash] {
            let mut node = genesis(kind);
            node.apply_external_block(&blocks[0]).unwrap();
            let before = view(&node);
            prop_assert_eq!(
                node.apply_external_block(&forged),
                Err(ChainError::InvalidBlock("state root mismatch"))
            );
            prop_assert_eq!(view(&node), before);
            node.apply_external_block(honest).unwrap();
            prop_assert_eq!(view(&node), view(&producer));
        }
    }
}
