//! An oracle for the sparse Merkle tree that shares no code with it.
//!
//! The full-rehash backend and every other differential check in the
//! workspace rebuild through `SmtTree::from_leaves`, so they compare the
//! tree with itself. `spec_root` / `spec_proof` below are the module-doc
//! rules of `pds2_chain::smt` written as plain recursion over a sorted
//! leaf slice: no store, no updates, preimages spelled out with `sha256`.
//! The known-answer constants were recorded with the `Arc` pointer tree
//! at commit `03fad62`, before the flat store replaced it.

use pds2_chain::smt::{SmtProof, SmtTree};
use pds2_crypto::sha256::{sha256, Digest};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Update = (Digest, Option<Digest>);
type Leaves = [(Digest, Digest)];

fn bit(key: &Digest, d: usize) -> bool {
    (key.as_bytes()[d >> 3] >> (7 - (d & 7))) & 1 == 1
}

fn tagged(prefix: u8, a: &Digest, b: &Digest) -> Digest {
    sha256(&[&[prefix][..], a.as_bytes(), b.as_bytes()].concat())
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
        [(k, v)] => tagged(0x02, k, v),
        _ => {
            let (left, right) = halves(depth, leaves);
            tagged(
                0x03,
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

/// `(root, len, hashes returned by commit)` after each step, as computed
/// by the pointer tree at the parent commit.
const KNOWN_ANSWERS: [(&str, usize, u64); 3] = [
    (
        "5c547f64034e227b4b7f43ef44056868cc2c33b04e38149d9794b3b24acbd3d7",
        1_000,
        2_427,
    ),
    (
        "6c3df20af09acf5a656b8d8f2544bb8c48d9a9f2b1bd5dfb2ed493f799725553",
        1_027,
        648,
    ),
    (
        "85c5842685cefe7364b07f3c6174563812db045ddca3264c72c3688ecd1f82c8",
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

#[test]
fn hash_count_never_depends_on_the_worker_pool() {
    for threads in [1usize, 4, 8] {
        pds2_par::with_threads(threads, || {
            let mut tree = SmtTree::new();
            for (updates, want) in known_answer_batches().into_iter().zip(KNOWN_ANSWERS) {
                assert_eq!(tree.commit(updates), want.2, "{threads} threads");
                assert_eq!(tree.root_hash().to_hex(), want.0, "{threads} threads");
            }
        });
    }
}
