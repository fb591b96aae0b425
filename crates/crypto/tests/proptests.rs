//! Property-based tests for the cryptographic substrate.

use pds2_crypto::bigint::BigUint;
use pds2_crypto::codec::{Decode, Encode, Encoder};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::sha256::{self, sha256, Digest, Sha256};
use pds2_crypto::MontgomeryCtx;
use proptest::prelude::*;

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
        let q = &pds2_crypto::schnorr::Group::standard().q;
        let sig = kp.sign(&msg);
        let mut tampered_s = sig.clone();
        tampered_s.s = tampered_s.s.add_mod(&BigUint::from_u64(bump), q);
        let mut tampered_e = sig.clone();
        tampered_e.e = tampered_e.e.add_mod(&BigUint::from_u64(bump), q);
        let mut wrong_msg = msg.clone();
        wrong_msg.push(0);
        for (pk, m, s) in [
            (&kp.public, &msg, &sig),
            (&kp.public, &wrong_msg, &sig),
            (&other.public, &msg, &sig),
            (&kp.public, &msg, &tampered_s),
            (&kp.public, &msg, &tampered_e),
        ] {
            prop_assert_eq!(pk.verify(m, s), pk.verify_reference(m, s));
        }
    }
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
/// bit-for-bit on a multiplication, a single and a dual exponentiation.
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
            ctx.modpow_dual(&ctx.pow_table(a), x, &ctx.pow_table(b), y),
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
