//! Property-based tests for the cryptographic substrate.

use pds2_crypto::bigint::BigUint;
use pds2_crypto::codec::{Decode, Encode, Encoder};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::montgomery::bucket_window;
use pds2_crypto::schnorr::{
    batch_randomisers, key_rows_cached, key_rows_held, verify_batch, BatchItem, Group, BATCH_MIN,
    KEY_ROWS_PER_GENERATION,
};
use pds2_crypto::sha256::{self, sha256, Digest, Sha256};
use pds2_crypto::{KeyPair, MontgomeryCtx, PublicKey, Signature};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Strategy producing BigUints up to ~256 bits from raw byte vectors.
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|v| BigUint::from_bytes_be(&v))
}

/// SHA-256 built on the portable compression alone (padding done here):
/// the reference side of `sha256_paths_agree`.
fn sha256_portable(data: &[u8]) -> Digest {
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    sha256::compress_portable(&mut state, &msg);
    let mut out = [0u8; 32];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    Digest(out)
}

fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|v| v.add(&BigUint::one()))
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn divrem_is_euclidean(a in biguint(), d in biguint_nonzero()) {
        let (q, r) = a.divrem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn shifts_invert(a in biguint(), s in 0u32..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u32..12, m in 2u64..10_000) {
        let expected = (0..exp).fold(1u128, |acc, _| acc * base as u128 % m as u128);
        let got = BigUint::from_u64(base)
            .modpow(&BigUint::from_u64(exp as u64), &BigUint::from_u64(m));
        prop_assert_eq!(got.to_u128(), Some(expected));
    }

    #[test]
    fn modinv_is_inverse(a in 1u64..1_000_000) {
        // Prime modulus guarantees invertibility for nonzero residues.
        let p = BigUint::from_u64(1_000_000_007);
        let av = BigUint::from_u64(a);
        let inv = av.modinv(&p).unwrap();
        prop_assert_eq!(av.mul_mod(&inv, &p), BigUint::one());
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn codec_vec_roundtrip(data in proptest::collection::vec(any::<u64>(), 0..50)) {
        let mut enc = Encoder::new();
        enc.put_seq(&data);
        let bytes = enc.finish();
        let mut dec = pds2_crypto::codec::Decoder::new(&bytes);
        prop_assert_eq!(dec.get_seq::<u64>().unwrap(), data);
        dec.expect_end().unwrap();
    }

    #[test]
    fn codec_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let encoded = data.to_bytes();
        prop_assert_eq!(Vec::<u8>::from_bytes(&encoded).unwrap(), data);
    }

    #[test]
    fn merkle_all_proofs_verify(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..24)
    ) {
        let tree = MerkleTree::from_leaves(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(leaf, &root));
        }
    }

    #[test]
    fn merkle_proof_binds_leaf(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..20), 2..16),
        tamper in any::<u8>(),
    ) {
        let tree = MerkleTree::from_leaves(&leaves);
        let proof = tree.prove(0).unwrap();
        let mut forged = leaves[0].clone();
        forged[0] ^= tamper | 1; // guaranteed different
        prop_assert!(!proof.verify(&forged, &tree.root()));
    }

    #[test]
    fn sha256_is_pure(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
    }

    #[test]
    fn sha256_paths_agree(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        misalign in 0usize..16,
    ) {
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            // On "portable" both sides of the comparison ran the same loop.
            println!("sha256_paths_agree: dispatched backend is {}", sha256::backend());
        });
        // The same message at a shifted address: the kernel may assume
        // nothing about the alignment of the caller's slice.
        let mut shifted = vec![0u8; misalign + data.len()];
        shifted[misalign..].copy_from_slice(&data);
        let msg = &shifted[misalign..];
        let (a, b) = (cut_a % (msg.len() + 1), cut_b % (msg.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let mut streaming = Sha256::new();
        streaming.update(&msg[..a]).update(&msg[a..b]).update(&msg[b..]);
        let expected = sha256_portable(&data);
        prop_assert_eq!(streaming.finalize(), expected);
        prop_assert_eq!(sha256(msg), expected);
        prop_assert_eq!(sha256::sha256_pair(&msg[..a], &msg[a..]), expected);
    }

    #[test]
    fn seal_open_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
    ) {
        let blob = pds2_crypto::chacha20::seal(&key, nonce, &data);
        prop_assert_eq!(pds2_crypto::chacha20::open(&key, &blob).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn schnorr_sign_verify(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let kp = pds2_crypto::KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public.verify(&msg, &sig));
        let mut other = msg.clone();
        other.push(1);
        prop_assert!(!kp.public.verify(&other, &sig));
    }

    /// The Shamir-trick fast verifier and the schoolbook reference verifier
    /// must reach the same decision on valid, tampered and mismatched
    /// inputs alike (DESIGN.md §5d).
    #[test]
    fn fast_verify_matches_reference(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        bump in 1u64..1000,
    ) {
        let kp = pds2_crypto::KeyPair::from_seed(seed);
        let other = pds2_crypto::KeyPair::from_seed(seed.wrapping_add(1));
        let sig = kp.sign(&msg);
        let bump = BigUint::from_u64(bump);
        let tampered_s = with_parts(sig.r(), &sig.s().add(&bump));
        let tampered_r = with_parts(&sig.r().add(&bump), sig.s());
        let mut wrong_msg = msg.clone();
        wrong_msg.push(0);
        for (pk, m, s) in [
            (&kp.public, &msg, &sig),
            (&kp.public, &wrong_msg, &sig),
            (&other.public, &msg, &sig),
            (&kp.public, &msg, &tampered_s),
            (&kp.public, &msg, &tampered_r),
        ] {
            prop_assert_eq!(pk.verify(m, s), pk.verify_reference(m, s));
        }
    }
}

// ---------------------------------------------------------------------------
// Batched verification: soundness of the one-product check (DESIGN.md §5d).
// ---------------------------------------------------------------------------

/// `(R, s)` reduced into range, so a bumped field always builds.
fn with_parts(r: &BigUint, s: &BigUint) -> Signature {
    let group = Group::standard();
    let r = r.rem(&group.p);
    let r = if r.is_zero() { BigUint::one() } else { r };
    Signature::new(r, s.rem(&group.q)).expect("reduced into range")
}

/// One signed triple, owned.
#[derive(Clone)]
struct Signed {
    key: PublicKey,
    message: Vec<u8>,
    signature: Signature,
}

impl Signed {
    fn item(&self) -> BatchItem<'_> {
        (&self.key, &self.message, &self.signature)
    }

    fn verdicts(&self) -> (bool, bool) {
        let (key, message, sig) = self.item();
        (key.verify(message, sig), key.verify_reference(message, sig))
    }
}

/// 320 valid triples under 40 keys, signed once per process.
fn pool() -> &'static [Signed] {
    static POOL: OnceLock<Vec<Signed>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..320u64)
            .map(|i| {
                let kp = KeyPair::from_seed(9_000 + i % 40);
                let message = i.to_le_bytes().repeat(1 + (i % 5) as usize);
                Signed {
                    signature: kp.sign(&message),
                    key: kp.public,
                    message,
                }
            })
            .collect()
    })
}

fn batch_of(picks: impl IntoIterator<Item = usize>) -> Vec<BatchItem<'static>> {
    picks.into_iter().map(|i| pool()[i % 320].item()).collect()
}

/// The four forgeries of soundness test (b), applied to a valid triple.
fn forge(honest: &Signed, kind: usize) -> Signed {
    let one = BigUint::one();
    let (r, s) = (honest.signature.r(), honest.signature.s());
    let mut forged = honest.clone();
    match kind % 4 {
        0 => forged.signature = with_parts(r, &s.add(&one)),
        1 => forged.signature = with_parts(&r.add(&one), s),
        2 => forged.message.push(0),
        _ => forged.key = KeyPair::from_seed(8_999).public,
    }
    forged
}

/// (a) Completeness at every small size, on both sides of the loop/batch
/// constant, with keys repeating from the 41st member on.
#[test]
fn every_all_valid_batch_passes_at_every_small_size() {
    assert!((0..=48).contains(&BATCH_MIN));
    for n in 0..=48 {
        assert!(verify_batch(&batch_of(0..n)), "n={n}");
    }
    // Nothing but one triple, over and over.
    for n in [1, 3, 4, 5, 17] {
        assert!(verify_batch(&batch_of(std::iter::repeat_n(7, n))), "n={n}");
    }
}

/// (b) One forgery of each kind at every position of a batch, at the
/// smallest size the bucket method takes and at a larger one.
#[test]
fn one_forgery_at_any_position_is_always_refused() {
    for n in [BATCH_MIN, 13] {
        for position in 0..n {
            for kind in 0..4 {
                let forged = forge(&pool()[position], kind);
                assert_eq!(forged.verdicts(), (false, false));
                let mut batch = batch_of(0..n);
                batch[position] = forged.item();
                assert!(
                    !verify_batch(&batch),
                    "n={n} position={position} kind={kind}"
                );
            }
        }
    }
}

/// Why the members are weighted: `s₁ + 1` and `s₂ − 1` leave `Σ sᵢ` as it
/// was, so an unweighted product of the members' equations would pass
/// with both of them forged. Under the randomisers it does not.
#[test]
fn two_forgeries_that_cancel_unweighted_are_refused() {
    let one = BigUint::one();
    let q = &Group::standard().q;
    for n in [4usize, 9, 64] {
        let (a, b) = (&pool()[1], &pool()[n - 1]);
        let up = Signed {
            signature: with_parts(a.signature.r(), &a.signature.s().add_mod(&one, q)),
            ..a.clone()
        };
        let down = Signed {
            signature: with_parts(b.signature.r(), &b.signature.s().sub_mod(&one, q)),
            ..b.clone()
        };
        assert_eq!(
            (up.verdicts(), down.verdicts()),
            ((false, false), (false, false))
        );
        let mut batch = batch_of(0..n);
        batch[1] = up.item();
        batch[n - 1] = down.item();
        assert!(!verify_batch(&batch), "n={n}");
    }
}

/// An element of exact order 28 in Z_p* (p = 28q + 1): `h^q` for the
/// first small `h` whose image is not in a proper subgroup.
fn root_of_unity_28() -> BigUint {
    let group = Group::standard();
    (2u64..)
        .map(|h| BigUint::from_u64(h).modpow(&group.q, &group.p))
        .find(|z| {
            let pow = |e: u64| z.modpow(&BigUint::from_u64(e), &group.p);
            !pow(14).is_one() && !pow(4).is_one()
        })
        .expect("Z_p* is cyclic")
}

/// The 25 tainted members of test (c), each with the verdict every path
/// must give it: a signer who knows `x` mixes an element of order 2, 4,
/// 7, 14 or 28 into `R`, into `y` or into both, before hashing (accepted
/// up to the cofactor) or after (refused, since it changes `e`).
fn tainted_members() -> Vec<(String, Signed, bool)> {
    let group = Group::standard();
    let zeta = root_of_unity_28();
    let kp = KeyPair::from_seed(77);
    let (x, y) = (kp.secret.scalar(), kp.public.element());
    let message = b"tainted".to_vec();
    let k = BigUint::from_u64(0x5eed_5eed).mul(&BigUint::from_u64(0xfeed_f00d));
    let clean_r = group.pow_g(&k);
    let mut members = Vec::new();
    for order in [2u64, 4, 7, 14, 28] {
        let z = zeta.modpow(&BigUint::from_u64(28 / order), &group.p);
        assert!(z.modpow(&BigUint::from_u64(order), &group.p).is_one() && !z.is_one());
        for (taint_r, taint_y, before_hashing) in [
            (true, false, true),
            (false, true, true),
            (true, true, true),
            (true, false, false),
            (false, true, false),
        ] {
            let mix = |v: &BigUint, on: bool| {
                if on {
                    v.mul_mod(&z, &group.p)
                } else {
                    v.clone()
                }
            };
            let (r, key) = (mix(&clean_r, taint_r), mix(y, taint_y));
            let (hashed_r, hashed_y) = if before_hashing {
                (&r, &key)
            } else {
                (&clean_r, y)
            };
            let e =
                group.hash_to_scalar(&[&hashed_r.to_bytes_be(), &hashed_y.to_bytes_be(), &message]);
            let s = k.add_mod(&e.mul_mod(x, &group.q), &group.q);
            let member = Signed {
                key: PublicKey::from_element(key),
                message: message.clone(),
                signature: Signature::new(r, s).expect("in range"),
            };
            let case = format!("order {order} R {taint_r} y {taint_y} before {before_hashing}");
            members.push((case, member, before_hashing));
        }
    }
    members
}

/// (c) Agreement under taint. A signer who knows `x` can mix an element
/// of small order into `R`, into `y`, or into both *before* hashing, and
/// gets a triple that satisfies the equation only up to the cofactor:
/// all three paths accept it. Mixed in *after* hashing it changes `e`,
/// and all three refuse. Either way no path disagrees with another.
#[test]
fn single_batch_and_reference_agree_on_small_order_taint() {
    let fillers = batch_of(0..6);
    let mut accepted = 0;
    for (case, member, before_hashing) in tainted_members() {
        assert_eq!(
            member.verdicts(),
            (before_hashing, before_hashing),
            "{case}"
        );
        for position in [0, 3, 6] {
            let mut batch = fillers.clone();
            batch.insert(position, member.item());
            assert_eq!(verify_batch(&batch), before_hashing, "{case} at {position}");
        }
        accepted += before_hashing as usize;
    }
    assert_eq!(accepted, 15);
}

// ---------------------------------------------------------------------------
// Row tables: the generator's comb and the verifying keys' rows (DESIGN.md
// §5d) against the schoolbook powers and the reference verifier.
// ---------------------------------------------------------------------------

/// `pow_g` walks the comb: every exponent shape against the schoolbook
/// power, the ones whose top windows are zero and the ones longer than
/// the comb's 256 bits included.
#[test]
fn comb_pow_g_matches_schoolbook() {
    let group = Group::standard();
    let one = BigUint::one();
    let mut exps = vec![
        BigUint::zero(),
        one.clone(),
        BigUint::from_u64(15),
        BigUint::from_u64(16),
        group.q.sub(&one),
        group.q.clone(),
        group.q.add(&one),
        one.shl(252),
        one.shl(255),
        one.shl(256).sub(&one),
        one.shl(256),
        one.shl(300).add(&one),
        group.p.clone(),
    ];
    for i in 0..24u64 {
        let full = sha_scalar(i);
        // Zero top windows: the exponent cut to 4·w bits for w below 64.
        let cut = full.rem(&one.shl(4 * (i as u32 * 5 % 64)));
        exps.extend([full.rem(&group.q), cut]);
    }
    for e in &exps {
        assert_eq!(
            group.pow_g(e),
            group.g.modpow_schoolbook(e, &group.p),
            "e={e:?}"
        );
    }
}

/// `dual_pow_g`, the single check threshold governance runs on partial
/// signatures, against the schoolbook product: keys in and out of the
/// subgroup, unreduced and degenerate ones, each seen twice.
#[test]
fn dual_pow_g_matches_schoolbook_for_every_key_shape() {
    let group = Group::standard();
    let p = &group.p;
    let zeta = root_of_unity_28();
    let key = KeyPair::from_seed(31).public.element().clone();
    let keys = [
        key.clone(),
        key.mul_mod(&zeta, p),
        zeta.clone(),
        BigUint::zero(),
        BigUint::one(),
        p.sub(&BigUint::one()),
        key.add(p),
        sha_scalar(5).add(&BigUint::from_u64(7)),
    ];
    for (i, y) in keys.iter().enumerate() {
        for sighting in 0..2u64 {
            let a = sha_scalar(100 + i as u64).rem(&group.q);
            let b = match sighting {
                0 => group.q.sub(&sha_scalar(200 + i as u64).rem(&group.q)),
                _ => sha_scalar(300 + i as u64).shl(40),
            };
            let expected = group
                .g
                .modpow_schoolbook(&a, p)
                .mul_mod(&y.modpow_schoolbook(&b, p), p);
            assert_eq!(
                group.dual_pow_g(&a, y, &b),
                expected,
                "key {i} sighting {sighting}"
            );
        }
    }
}

/// A forgery under a key whose rows are cached is refused, and it leaves
/// nothing behind: the key's next honest signature still verifies.
#[test]
fn a_forgery_under_a_warm_key_is_refused_and_the_next_honest_one_passes() {
    let kp = KeyPair::from_seed(4_242);
    let honest = Signed {
        key: kp.public.clone(),
        message: b"warm".to_vec(),
        signature: kp.sign(b"warm"),
    };
    assert!(!key_rows_cached(&kp.public));
    assert_eq!(honest.verdicts(), (true, true));
    assert!(key_rows_cached(&kp.public));
    for kind in 0..3 {
        let forged = forge(&honest, kind);
        assert_eq!(forged.verdicts(), (false, false), "kind {kind}");
        let next = kp.sign(&[b'n', kind as u8]);
        assert!(kp.public.verify(&[b'n', kind as u8], &next), "kind {kind}");
    }
}

/// Row-based verification agrees with the reference on a key's first
/// sighting, its second and after its generation rolled (found in the
/// older one), for honest keys, forgeries under them and the 25 tainted
/// members of test (c); and after more than two generations of distinct
/// keys a thread holds at most two generations.
#[test]
fn row_verify_matches_reference_across_sightings_and_generations() {
    let mut tracked: Vec<(String, Signed, bool)> = tainted_members();
    for i in 0..4u64 {
        let kp = KeyPair::from_seed(5_000 + i);
        let message = i.to_le_bytes().to_vec();
        let signature = kp.sign(&message);
        let honest = Signed {
            key: kp.public,
            message,
            signature,
        };
        tracked.push((format!("honest {i}"), forge(&honest, 0), false));
        tracked.push((format!("honest {i}"), honest, true));
    }
    let check = |when: &str| {
        for (case, member, verdict) in &tracked {
            assert_eq!(member.verdicts(), (*verdict, *verdict), "{when}: {case}");
        }
    };
    // Keys the filler walks never meet: small elements, one per call.
    let group = Group::standard();
    let (a, b) = (BigUint::from_u64(3), BigUint::from_u64(5));
    let mut filler = 1_000_000u64;
    let mut fill = |keys: usize| {
        for _ in 0..keys {
            filler += 1;
            group.dual_pow_g(&a, &BigUint::from_u64(filler), &b);
        }
        assert!(key_rows_held() <= 2 * KEY_ROWS_PER_GENERATION);
    };
    assert!(tracked.iter().all(|(_, m, _)| !key_rows_cached(&m.key)));
    check("first sighting");
    assert!(tracked.iter().all(|(_, m, _)| key_rows_cached(&m.key)));
    check("second sighting");
    fill(KEY_ROWS_PER_GENERATION);
    assert!(tracked.iter().all(|(_, m, _)| key_rows_cached(&m.key)));
    check("found in the older generation");
    // More than two generations of distinct keys have now passed through.
    fill(KEY_ROWS_PER_GENERATION + 1);
    assert!(key_rows_held() > KEY_ROWS_PER_GENERATION);
}

/// (d) The randomisers are a function of the batch and of all of it.
#[test]
fn randomisers_depend_on_the_batch_only_and_on_its_order() {
    let batch = batch_of(0..40);
    let a = batch_randomisers(&batch);
    assert_eq!(a, batch_randomisers(&batch_of(0..40)));
    assert!(a.iter().all(|a| !a.is_zero() && a.bits() <= 129));
    let mut distinct = a.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), a.len());
    // Any reordering, one more member or one changed field is another
    // seed: no randomiser survives.
    let mut swapped = batch.clone();
    swapped.swap(3, 29);
    let mut rotated = batch.clone();
    rotated.rotate_left(1);
    let forged = forge(&pool()[11], 0);
    let mut changed = batch.clone();
    changed[11] = forged.item();
    for other in [swapped, rotated, changed, batch_of(0..41), batch_of(0..39)] {
        let b = batch_randomisers(&other);
        assert!(a.iter().zip(&b).all(|(a, b)| a != b));
        assert!(b.iter().all(|b| !b.is_zero()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Completeness at block sizes: any draw from the pool, repeated
    /// keys and repeated triples included.
    #[test]
    fn every_all_valid_batch_passes(picks in proptest::collection::vec(0usize..320, 1..301)) {
        prop_assert!(verify_batch(&batch_of(picks)));
    }

    /// (b) One forgery anywhere in a batch of any size.
    #[test]
    fn one_forgery_in_a_batch_is_always_refused(
        picks in proptest::collection::vec(0usize..320, 1..301),
        position in any::<usize>(),
        kind in 0usize..4,
    ) {
        let position = position % picks.len();
        let forged = forge(&pool()[picks[position]], kind);
        let mut batch = batch_of(picks);
        batch[position] = forged.item();
        prop_assert!(!verify_batch(&batch));
    }
}

// ---------------------------------------------------------------------------
// Merged key terms: members under one key share one term of the product.
// ---------------------------------------------------------------------------

/// 64 valid triples under 8 keys, eight a key, signed once per process.
fn shared_key_pool() -> &'static [Signed] {
    static POOL: OnceLock<Vec<Signed>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..64u64)
            .map(|i| {
                let kp = KeyPair::from_seed(9_500 + i % 8);
                let message = (1_000 + i).to_le_bytes().to_vec();
                Signed {
                    signature: kp.sign(&message),
                    key: kp.public,
                    message,
                }
            })
            .collect()
    })
}

/// Eight members under one key with an element of order 28 mixed in,
/// each signed by a holder of the clean key's secret. The first seven
/// hash the tainted key, so they hold up to the cofactor and every path
/// accepts them; the last hashes the clean key, so every path refuses it.
fn tainted_key_members() -> &'static [Signed] {
    static MEMBERS: OnceLock<Vec<Signed>> = OnceLock::new();
    MEMBERS.get_or_init(|| {
        let group = Group::standard();
        let kp = KeyPair::from_seed(78);
        let (x, y) = (kp.secret.scalar(), kp.public.element());
        let key = y.mul_mod(&root_of_unity_28(), &group.p);
        (0..8u64)
            .map(|i| {
                let message = i.to_le_bytes().to_vec();
                let k = BigUint::from_u64(0x7a1_0000 + i).mul(&BigUint::from_u64(0xfeed_f00d));
                let r = group.pow_g(&k);
                let hashed = if i < 7 { &key } else { y };
                let e = group.hash_to_scalar(&[&r.to_bytes_be(), &hashed.to_bytes_be(), &message]);
                Signed {
                    key: PublicKey::from_element(key.clone()),
                    message,
                    signature: Signature::new(r, k.add_mod(&e.mul_mod(x, &group.q), &group.q))
                        .expect("in range"),
                }
            })
            .collect()
    })
}

/// Members under a key with a small-order component share its term: the
/// seven that hold up to the cofactor pass as one batch, beside honest
/// members of other keys, and the one that does not is refused.
#[test]
fn a_key_with_a_small_order_component_is_one_term() {
    let tainted = tainted_key_members();
    let verdicts: Vec<_> = tainted.iter().map(Signed::verdicts).collect();
    assert_eq!(verdicts[..7], [(true, true); 7]);
    assert_eq!(verdicts[7], (false, false));
    let honest = shared_key_pool().iter().take(9).map(Signed::item);
    let mut batch: Vec<BatchItem<'_>> = tainted[..7].iter().map(Signed::item).collect();
    batch.extend(honest);
    assert!(verify_batch(&batch));
    batch.push(tainted[7].item());
    assert!(!verify_batch(&batch));
}

/// Two signatures under one key with their messages swapped: each member
/// is refused alone, and the two together (under a shared key term, with
/// honest members of that key around them) are refused too.
#[test]
fn swapped_messages_under_one_key_are_refused_together() {
    let pool = shared_key_pool();
    // Members 3 and 11 are the same key's.
    let (a, b) = (&pool[3], &pool[11]);
    assert_eq!(a.key, b.key);
    let swapped = [
        Signed {
            message: b.message.clone(),
            ..a.clone()
        },
        Signed {
            message: a.message.clone(),
            ..b.clone()
        },
    ];
    assert!(swapped.iter().all(|m| m.verdicts() == (false, false)));
    for n in [0, 2, 6, 30] {
        let mut batch: Vec<BatchItem<'_>> = swapped.iter().map(Signed::item).collect();
        batch.extend(pool.iter().take(n).map(Signed::item));
        assert!(!verify_batch(&batch), "with {n} honest members");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A batch drawn from eight keys, so most members share a key's term,
    /// with at most one member replaced by a forgery of any kind, plus
    /// members under a key that carries a small-order component: the batch
    /// accepts exactly when every member does.
    #[test]
    fn a_batch_under_shared_keys_accepts_exactly_when_every_member_does(
        picks in proptest::collection::vec(0usize..64, 1..80),
        tainted in proptest::collection::vec(0usize..8, 0..6),
        position in any::<usize>(),
        forgery in 0usize..5,
    ) {
        let mut members: Vec<Signed> =
            picks.iter().map(|&i| shared_key_pool()[i].clone()).collect();
        if forgery < 4 {
            let at = position % members.len();
            members[at] = forge(&members[at], forgery);
        }
        members.extend(tainted.iter().map(|&i| tainted_key_members()[i].clone()));
        let each = members.iter().all(|m| m.verdicts() == (true, true));
        let batch: Vec<BatchItem<'_>> = members.iter().map(Signed::item).collect();
        prop_assert_eq!(verify_batch(&batch), each);
    }
}

// ---------------------------------------------------------------------------
// The bucket multi-exponentiation vs a product of schoolbook modpows.
// ---------------------------------------------------------------------------

fn assert_multi_pow_matches_schoolbook(m: &BigUint, terms: &[(BigUint, BigUint)]) {
    let expected = terms
        .iter()
        .fold(BigUint::one().rem(m), |acc, (base, exp)| {
            acc.mul_mod(&base.modpow_schoolbook(exp, m), m)
        });
    let refs: Vec<(&BigUint, &BigUint)> = terms.iter().map(|(b, e)| (b, e)).collect();
    for ctx in both_widths(m) {
        assert_eq!(
            ctx.multi_pow(&refs),
            expected,
            "m={m:?} terms={}",
            terms.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (e) Random widths and counts (n = 0 included), exponents from
    /// zero to five limbs, so that windows of every width up to 4 bits
    /// land on limb boundaries.
    #[test]
    fn multi_pow_matches_schoolbook(
        width in 0..KERNEL_LIMBS.len(),
        m in limbs(33),
        terms in proptest::collection::vec(
            (limbs(34), proptest::collection::vec(any::<u64>(), 0..5)),
            0..40,
        ),
    ) {
        let k = KERNEL_LIMBS[width].min(6);
        let mut m = m[..k].to_vec();
        m[0] |= 1;
        m[k - 1] |= 1 << 63;
        let m = BigUint::from_limbs(m);
        let terms: Vec<(BigUint, BigUint)> = terms
            .into_iter()
            .map(|(base, exp)| (BigUint::from_limbs(base[..k + 1].to_vec()), BigUint::from_limbs(exp)))
            .collect();
        assert_multi_pow_matches_schoolbook(&m, &terms);
    }
}

/// (e) Enough terms for the 5- and 6-bit windows, whose digits straddle
/// limbs at bits 60..66 and 126..132, on the group prime: all-ones
/// exponents put a non-zero digit in every window, zero exponents in
/// none, and the two batch shapes (128- and 255-bit) mix in one product.
#[test]
fn multi_pow_wide_windows_straddle_limbs() {
    let p = Group::standard().p.clone();
    let ones = |bits: u32| BigUint::one().shl(bits).sub(&BigUint::one());
    for n in [260usize, 600] {
        let terms: Vec<(BigUint, BigUint)> = (0..n as u64)
            .map(|i| {
                let exp = match i % 4 {
                    0 => BigUint::zero(),
                    1 => ones(128),
                    2 => ones(255),
                    _ => sha_scalar(i),
                };
                (sha_scalar(i + 1_000_000).add(&BigUint::from_u64(2)), exp)
            })
            .collect();
        let bits = terms.iter().map(|(_, exp)| exp.bits());
        assert_eq!(bucket_window(bits), if n == 260 { 5 } else { 6 });
        assert_multi_pow_matches_schoolbook(&p, &terms);
    }
    assert_multi_pow_matches_schoolbook(&p, &[]);
    assert_multi_pow_matches_schoolbook(&p, &[(BigUint::from_u64(5), BigUint::zero())]);
}

/// A 256-bit value from a counter.
fn sha_scalar(i: u64) -> BigUint {
    BigUint::from_bytes_be(sha256(&i.to_le_bytes()).as_bytes())
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic vs the schoolbook (divrem-reduction) baseline.
// ---------------------------------------------------------------------------

/// Odd moduli > 1 up to ~320 bits — the domain `MontgomeryCtx` accepts.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..40).prop_map(|mut v| {
        *v.last_mut().expect("non-empty") |= 1;
        let m = BigUint::from_bytes_be(&v);
        if m.is_one() {
            BigUint::from_u64(3)
        } else {
            m
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn montgomery_mul_matches_schoolbook(a in biguint(), b in biguint(), m in odd_modulus()) {
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    /// Multiplying by one round-trips through Montgomery form: the result
    /// must be the plain residue, exercising to-Mont → REDC → from-Mont.
    #[test]
    fn montgomery_roundtrip_is_identity(a in biguint(), m in odd_modulus()) {
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.mul_mod(&a, &BigUint::one()), a.rem(&m));
    }

    #[test]
    fn montgomery_modpow_matches_schoolbook(
        base in biguint(),
        exp in proptest::collection::vec(any::<u8>(), 0..16).prop_map(|v| BigUint::from_bytes_be(&v)),
        m in odd_modulus(),
    ) {
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_schoolbook(&exp, &m));
    }

    /// The public `modpow` dispatcher (Montgomery when profitable,
    /// schoolbook otherwise) must be extensionally equal to the schoolbook
    /// reference on every modulus, even or odd.
    #[test]
    fn dispatched_modpow_matches_schoolbook(
        base in biguint(),
        exp in biguint(),
        m in biguint_nonzero().prop_map(|v| v.add(&BigUint::one())),
    ) {
        prop_assert_eq!(base.modpow(&exp, &m), base.modpow_schoolbook(&exp, &m));
    }
}

/// Deterministic sweep of the boundary operands (0, 1, m−1, m, m+1) the
/// random strategies rarely land on, against several modulus shapes
/// including the standard group prime.
#[test]
fn montgomery_edge_operands_match_schoolbook() {
    let p = pds2_crypto::schnorr::Group::standard().p.clone();
    let moduli = [
        BigUint::from_u64(3),
        BigUint::from_u64(0xffff_ffff_ffff_fff1), // near the limb boundary
        // (2^64 - 1)^2 + 2: a two-limb odd modulus straddling the carry path.
        BigUint::from_u64(u64::MAX)
            .mul(&BigUint::from_u64(u64::MAX))
            .add(&BigUint::from_u64(2)),
        p,
    ];
    for m in &moduli {
        let ctx = MontgomeryCtx::new(m).expect("odd modulus > 1");
        let edges = [
            BigUint::zero(),
            BigUint::one(),
            m.sub(&BigUint::one()),
            m.clone(),
            m.add(&BigUint::one()),
        ];
        for a in &edges {
            for b in &edges {
                assert_eq!(ctx.mul_mod(a, b), a.mul_mod(b, m), "mul a={a:?} b={b:?}");
            }
            for e in &edges {
                assert_eq!(
                    ctx.modpow(a, e),
                    a.modpow_schoolbook(e, m),
                    "pow a={a:?} e={e:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The one CIOS body at both widths vs the schoolbook reference.
// ---------------------------------------------------------------------------

/// Limb counts on both sides of the width choice: `MontgomeryCtx::new`
/// takes the compile-time-width kernel at 5 limbs only.
const KERNEL_LIMBS: [usize; 6] = [1, 4, 5, 6, 16, 33];

/// The two kernel instantiations for `m`. Off 5 limbs both run at
/// run-time width, which is the point: one body, whatever the width.
fn both_widths(m: &BigUint) -> [MontgomeryCtx; 2] {
    [
        MontgomeryCtx::new(m).expect("odd modulus > 1"),
        MontgomeryCtx::new_run_time_width(m).expect("odd modulus > 1"),
    ]
}

/// Asserts that both instantiations and the schoolbook path agree
/// bit-for-bit on a multiplication, a single exponentiation (the one-row
/// walk) and a product of two (the bucket method).
fn assert_kernels_match_schoolbook(
    m: &BigUint,
    a: &BigUint,
    b: &BigUint,
    x: &BigUint,
    y: &BigUint,
) {
    let mul = a.mul_mod(b, m);
    let pow = a.modpow_schoolbook(x, m);
    let dual = pow.mul_mod(&b.modpow_schoolbook(y, m), m);
    for ctx in both_widths(m) {
        assert_eq!(ctx.mul_mod(a, b), mul, "mul m={m:?} a={a:?} b={b:?}");
        assert_eq!(ctx.modpow(a, x), pow, "pow m={m:?} a={a:?} x={x:?}");
        assert_eq!(
            ctx.multi_pow(&[(a, x), (b, y)]),
            dual,
            "dual m={m:?} a={a:?} x={x:?} b={b:?} y={y:?}"
        );
    }
}

fn limbs(n: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), n..n + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_widths_match_schoolbook(
        width in 0..KERNEL_LIMBS.len(),
        top_heavy in any::<bool>(),
        m in limbs(33),
        a in limbs(34),
        b in limbs(33),
        x in proptest::collection::vec(any::<u64>(), 0..5),
        y in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let k = KERNEL_LIMBS[width];
        let mut m = m[..k].to_vec();
        m[0] |= 1;
        // A non-zero top limb makes the modulus exactly k limbs; a set
        // top bit also makes sums overflow the k-th limb.
        m[k - 1] |= if top_heavy { 1 << 63 } else { 1 };
        let m = BigUint::from_limbs(m);
        let m = if m.is_one() { BigUint::from_u64(3) } else { m };
        // `a` may exceed the modulus by a limb; `b` is at most as wide.
        let a = BigUint::from_limbs(a[..k + 1].to_vec());
        let b = BigUint::from_limbs(b[..k].to_vec());
        assert_kernels_match_schoolbook(
            &m,
            &a,
            &b,
            &BigUint::from_limbs(x),
            &BigUint::from_limbs(y),
        );
    }
}

/// The boundary operands on the Schnorr prime itself, where the
/// compile-time-width kernel runs in production.
#[test]
fn kernel_widths_match_schoolbook_on_group_prime_edges() {
    let p = pds2_crypto::schnorr::Group::standard().p.clone();
    let edges = [
        BigUint::zero(),
        BigUint::one(),
        p.sub(&BigUint::one()),
        p.clone(),
        p.add(&BigUint::one()),
        BigUint::one().shl(320).sub(&BigUint::one()),
    ];
    for a in &edges {
        for b in &edges {
            assert_kernels_match_schoolbook(&p, a, b, b, a);
        }
    }
}

/// 5-limb moduli just below 2^320 with Montgomery operands just below the
/// modulus: the pre-subtraction value `(X·Y + m·n) / R` reaches `R`, so the
/// final subtraction is taken on the carry limb, not on the comparison.
#[test]
fn kernel_final_subtraction_carry_branch_matches_schoolbook() {
    let r = BigUint::one().shl(320);
    let mut forced = 0;
    for c in [1u64, 3, 189, 0xffff_ffff_ffff_fffd] {
        let n = r.sub(&BigUint::from_u64(c));
        let r_inv = r.modinv(&n).expect("R is coprime to an odd modulus");
        // n' = -n^{-1} mod R, the full-width analogue of the kernel's n0inv.
        let n_prime = r.sub(&n.modinv(&r).expect("odd n is coprime to R"));
        for dx in 1..4u64 {
            for dy in 1..4u64 {
                let big_x = n.sub(&BigUint::from_u64(dx));
                let big_y = n.sub(&BigUint::from_u64(dy));
                let xy = big_x.mul(&big_y);
                let m = xy.rem(&r).mul(&n_prime).rem(&r);
                if xy.add(&m.mul(&n)).shr(320) >= r {
                    forced += 1;
                }
                // `mul_mod(a, b)` multiplies the Montgomery forms a·R and
                // b·R, so these plain operands put X and Y into the kernel.
                let a = big_x.mul_mod(&r_inv, &n);
                let b = big_y.mul_mod(&r_inv, &n);
                let expected = a.mul_mod(&b, &n);
                for ctx in both_widths(&n) {
                    assert_eq!(ctx.mul_mod(&a, &b), expected, "c={c} dx={dx} dy={dy}");
                }
            }
        }
    }
    assert!(forced >= 4, "only {forced} cases reached the carry limb");
}
