//! Schnorr signatures over a prime-order subgroup of Z_p*.
//!
//! The group parameters are fixed: the subgroup order is the well-known
//! prime q = 2^255 - 19, and the modulus is the smallest prime
//! p = k·q + 1 (k even), which the derivation loop finds at k = 28, with
//! generator g = 2^k mod p = 2^28 of exact order q. So p = 28q + 1 is a
//! 260-bit prime. The group is a stand-in with no real security: the
//! 255-bit order stops generic attacks, but discrete logs mod p fall to
//! index calculus, whose cost grows with |p|, and a 260-bit field is far
//! below any security level (NIST SP 800-57 asks for 2048 bits for
//! 112). ROADMAP item 16 replaces it with an elliptic-curve group.
//!
//! The constants are checked structurally on every startup (odd, right magnitude, q | p−1,
//! g^q = 1) and re-derived from scratch — Miller–Rabin minimality search
//! included — under `debug_assertions`, so release builds skip the
//! first-signature latency spike without ever trusting unverified magic
//! numbers.
//!
//! Signing uses deterministic nonces (HMAC over the secret key and message,
//! RFC 6979 in spirit), so the whole marketplace simulation is replayable.
//!
//! A signature is `(R, s)`: the nonce commitment `R = g^k` and the
//! response `s = k + e·x mod q` with `e = H(R ‖ y ‖ m)`, 65 bytes on the
//! wire (33 of `R`, 32 of `s`, fixed width, range-checked where they are
//! decoded). With `R` in hand a verifier hashes first and exponentiates
//! second, so many signatures can be checked as one product.
//!
//! These signatures authenticate everything in PDS²: chain transactions,
//! device sensor readings (§IV-B of the paper), participation certificates
//! and attestation quotes. That makes verification the hottest arithmetic
//! in the system, and it runs on the Montgomery fast path (DESIGN.md
//! §5d), a process-wide [`MontgomeryCtx`] for p — the fixed-width kernel
//! on stack-resident `[u64; 5]` residues, which reduces by p's shape
//! `14·2^256 − 531` in three limb products per limb where a generic
//! reduction takes six — in two shapes:
//!
//! * [`PublicKey::verify`], one signature: `T = g^s · y^{q-e}` in one
//!   walk over two Lim–Lee combs that share one chain of 15 squarings —
//!   the generator's, built once (8 rows, 2 sub-tables, 20 KB), and the
//!   key's (4 rows, 4 sub-tables, 2.4 KB, built from `y^{2^{16m}}`,
//!   `m < 16`) — and the comparison `T²⁸ = R²⁸`. The same keys sign
//!   again and again, so a key's comb lives in a two-generation cache of
//!   constant capacity on the verifying thread ([`KEY_ROWS_PER_GENERATION`]):
//!   no lock, no hash of the key beyond the map's own, 15 squarings and
//!   about 92 multiplications for a known key against about 390 for its
//!   first verification, which builds the comb. A signature's `g^k` is
//!   15 squarings and about 32 multiplications on the generator's comb;
//! * [`verify_batch`], a block of them: randomisers `aᵢ` hashed from the
//!   batch and ONE Pippenger multi-exponentiation
//!   `g^{−Σ aᵢsᵢ} · Π Rᵢ^{aᵢ} · Π yᵢ^{aᵢeᵢ}` whose 28th power must be 1,
//!   with one term per distinct key `y`, whose exponent is its members'
//!   `aᵢeᵢ` summed mod q.
//!
//! Both compare 28th powers because p = 28q + 1: the cofactor projects
//! every element of Z_p* onto the subgroup of order q, so the two shapes
//! accept exactly the same `(y, m, R, s)` whatever small-order component
//! an attacker mixes into `R` or `y` — a block is never valid on one path
//! and invalid on the other. [`PublicKey::verify_reference`] keeps a
//! schoolbook form of the same equation alive as the oracle both are
//! equivalence-tested against.

use crate::bigint::BigUint;
use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use crate::hmac::hmac_sha256;
use crate::montgomery::{Comb, CombShape, MontgomeryCtx, COMB_BITS, COMB_LIMBS};
use crate::sha256::{sha256_pair, Digest, Sha256};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The multiplier `k` with p = k·q + 1 prime (smallest even k; derived).
const GROUP_K: u64 = 28;

/// The Schnorr group parameters (p, q, g) with q | p - 1 and ord(g) = q.
#[derive(Clone, Debug)]
pub struct Group {
    /// Prime modulus.
    pub p: BigUint,
    /// Prime order of the subgroup generated by `g`.
    pub q: BigUint,
    /// Subgroup generator.
    pub g: BigUint,
}

static GROUP: OnceLock<Group> = OnceLock::new();

/// Precomputed fast-path state for the standard group: the Montgomery
/// context for p and the generator's comb (shared by signing, key
/// generation and verification).
struct GroupCtx {
    mont: MontgomeryCtx,
    g_comb: Comb,
}

/// The generator's comb: 8 rows of 32 bits, each split into 2 blocks of
/// 16 (2 × 255 residues, 20 KB), so `g^k` for `k < 2^256` is 15 squarings
/// and about 32 multiplications.
const G_COMB: CombShape = CombShape::new::<8, 2, 16>();

/// A verifying key's comb: 4 rows of 64 bits, each split into 4 blocks
/// of 16 (4 × 15 residues, 2.4 KB), built from `y^{2^{16m}}` for `m < 16`
/// in 240 squarings and 44 multiplications. Its 16 steps are the
/// generator comb's, so `g^a · y^b` walks both on one chain of 15
/// squarings, with about 92 multiplications.
const KEY_COMB: CombShape = CombShape::new::<4, 4, 16>();

/// Keys per generation of a thread's key-comb cache: above the largest
/// working set of senders a workload keeps (2 000 on `mempool_flood`), so
/// a key that signs again while its generation lives is found. A thread
/// holds at most twice this many combs, about 20 MB. A constant of the
/// design, not a knob.
pub const KEY_ROWS_PER_GENERATION: usize = 4096;

/// A thread's combs for the keys it verified lately, in two generations:
/// a lookup that misses `current` but hits `previous` moves the comb
/// forward, and when `current` is full the older generation is dropped
/// and `current` becomes it. Keyed by the key's limbs (the element below
/// p, so its five limbs are the whole value); each comb is a pure
/// function of its key, so whatever the cache holds, every result is what
/// a fresh comb would give.
#[derive(Default)]
struct KeyCombCache {
    current: HashMap<[u64; 5], Comb>,
    previous: HashMap<[u64; 5], Comb>,
}

impl KeyCombCache {
    /// The comb for `y < p`, built on a miss in both generations.
    fn comb(&mut self, mont: &MontgomeryCtx, y: &BigUint) -> &Comb {
        let key = low_limbs(y);
        if self.current.len() >= KEY_ROWS_PER_GENERATION && !self.current.contains_key(&key) {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        let previous = &mut self.previous;
        self.current.entry(key).or_insert_with(|| {
            previous
                .remove(&key)
                .unwrap_or_else(|| mont.comb(y, KEY_COMB))
        })
    }

    /// The comb for `y` if either generation holds one; never builds.
    fn cached(&self, y: &BigUint) -> Option<&Comb> {
        let key = (y.limbs().len() <= 5).then(|| low_limbs(y))?;
        self.current.get(&key).or_else(|| self.previous.get(&key))
    }
}

/// The low `N` limbs of `x`, zero-padded: all of `x` for `x < 2^{64N}`
/// (an element below p at `N = 5`, a comb exponent at `N = 4`).
fn low_limbs<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    for (limb, &x) in out.iter_mut().zip(x.limbs()) {
        *limb = x;
    }
    out
}

thread_local! {
    static KEY_COMBS: RefCell<KeyCombCache> = RefCell::default();
}

/// Combs this thread's key-comb cache holds, both generations together
/// (test hook: the cache stays within `2 × KEY_ROWS_PER_GENERATION`).
#[doc(hidden)]
pub fn key_rows_held() -> usize {
    KEY_COMBS.with(|cache| {
        let cache = cache.borrow();
        cache.current.len() + cache.previous.len()
    })
}

/// Whether this thread's key-comb cache holds a comb for `key` (test
/// hook: a key's first and later verifications take different paths).
#[doc(hidden)]
pub fn key_rows_cached(key: &PublicKey) -> bool {
    KEY_COMBS.with(|cache| cache.borrow().cached(&key.y).is_some())
}

static GROUP_CTX: OnceLock<GroupCtx> = OnceLock::new();

impl Group {
    /// Returns the process-wide standard group (computed once).
    pub fn standard() -> &'static Group {
        GROUP.get_or_init(Group::from_constants)
    }

    /// The process-wide Montgomery context and generator comb for the
    /// standard group.
    fn ctx() -> &'static GroupCtx {
        GROUP_CTX.get_or_init(|| {
            let group = Group::standard();
            // `from_constants` asserts p odd and > 1, all `new` asks.
            let mont = MontgomeryCtx::new(&group.p).expect("standard modulus is an odd prime");
            let g_comb = mont.comb(&group.g, G_COMB);
            GroupCtx { mont, g_comb }
        })
    }

    /// Builds the standard group from the shipped constants, with cheap
    /// structural checks always on and the full derivation (primality and
    /// minimality of `k`) re-run under `debug_assertions`.
    fn from_constants() -> Group {
        // q = 2^255 - 19, prime (the Curve25519 base-field prime).
        let q = BigUint::from_u64(1).shl(255).sub(&BigUint::from_u64(19));
        let p = q.mul_u64(GROUP_K).add(&BigUint::one());
        // g = 2^k mod p; for k = 28 that is just 2^28 (far below p).
        let g = BigUint::one().shl(GROUP_K as u32);
        // Structural checks (cheap, release builds included): q | p - 1
        // by construction; g must have order exactly q.
        assert!(
            !p.is_even() && p.bits() == q.bits() + 5,
            "group modulus malformed"
        );
        assert!(g.modpow(&q, &p).is_one(), "generator order is not q");
        assert!(!g.is_one(), "generator is trivial");
        #[cfg(debug_assertions)]
        {
            let derived = Self::derive();
            assert_eq!(derived.p, p, "shipped p disagrees with derivation");
            assert_eq!(derived.q, q, "shipped q disagrees with derivation");
            assert_eq!(derived.g, g, "shipped g disagrees with derivation");
        }
        Group { p, q, g }
    }

    /// Derives the standard group from scratch (the search that produced
    /// [`GROUP_K`]). Debug builds re-run it to validate the constants.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn derive() -> Group {
        let q = BigUint::from_u64(1).shl(255).sub(&BigUint::from_u64(19));
        let mut rng = StdRng::seed_from_u64(0x5044_5332); // "PDS2"; MR witnesses only
        debug_assert!(q.is_probable_prime(&mut rng, 4));
        let mut k = 2u64;
        loop {
            let p = q.mul_u64(k).add(&BigUint::one());
            if p.is_probable_prime(&mut rng, 24) {
                // g = 2^k mod p has order q unless it is 1.
                let g = BigUint::from_u64(2).modpow(&BigUint::from_u64(k), &p);
                if !g.is_one() {
                    debug_assert!(g.modpow(&q, &p).is_one());
                    return Group { p, q, g };
                }
            }
            k += 2;
        }
    }

    /// `g^e mod p` through the generator's comb: 15 squarings and about
    /// 32 multiplications. An exponent above the comb's 256 bits is
    /// reduced mod q first, which leaves the power alone: g has order q.
    ///
    /// Public because the threshold-governance layer (`pds2-gov`) computes
    /// nonce commitments `g^k` and share commitments `g^{s_i}` on the same
    /// fast path signing and verification use.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        let ctx = Self::ctx();
        ctx.mont.pow_combs([(&ctx.g_comb, &self.g_exponent(e))])
    }

    /// `e` as the generator comb's exponent: its limbs, or above 256 bits
    /// those of `e mod q`, the same power of g.
    fn g_exponent(&self, e: &BigUint) -> [u64; COMB_LIMBS] {
        if e.bits() > COMB_BITS {
            low_limbs(&self.reduce_q(e))
        } else {
            low_limbs(e)
        }
    }

    /// `g^a · y^b mod p` in one walk over the generator's comb and `y`'s,
    /// taken from this thread's key-comb cache or built into it (see
    /// [`KEY_ROWS_PER_GENERATION`]) — the machinery [`PublicKey::verify`]
    /// runs on. 15 squarings and about 92 multiplications for a key seen
    /// before, about 390 the first time. A `b` above the comb's 256 bits
    /// (no signature check makes one; y's order is not known) takes
    /// [`MontgomeryCtx::modpow`] instead.
    ///
    /// `pds2-gov` uses this to check a partial signature `s_i` against its
    /// signer's share commitment: `g^{s_i} · Y_i^{q - e·λ_i} == R_i`.
    pub fn dual_pow_g(&self, a: &BigUint, y: &BigUint, b: &BigUint) -> BigUint {
        let ctx = Self::ctx();
        let y = ctx.mont.reduced(y);
        if b.bits() > COMB_BITS {
            return ctx.mont.mul_mod(&self.pow_g(a), &ctx.mont.modpow(&y, b));
        }
        let (a, b) = (self.g_exponent(a), low_limbs(b));
        KEY_COMBS.with(|cache| {
            let mut cache = cache.borrow_mut();
            let comb = cache.comb(&ctx.mont, &y);
            ctx.mont.pow_combs([(comb, &b), (&ctx.g_comb, &a)])
        })
    }

    /// Reduces a digest-sized value into Z_q.
    ///
    /// Public because threshold signing must derive the *same* challenge
    /// scalar `e = H(R ‖ Y ‖ m)` that [`PublicKey::verify`] recomputes —
    /// the aggregate of t partial signatures is a plain Schnorr signature
    /// precisely because both sides hash identically.
    pub fn hash_to_scalar(&self, parts: &[&[u8]]) -> BigUint {
        self.to_scalar(&hash_parts(parts))
    }

    fn to_scalar(&self, digest: &Digest) -> BigUint {
        self.reduce_q(&BigUint::from_bytes_be(digest.as_bytes()))
    }

    /// `x mod q`, the value `x.rem(&self.q)` computes, without a division
    /// for `x < 2^512` (every scalar product a signature makes): with
    /// `q = 2^255 − 19`, `2^255 ≡ 19`, so the bits above 255 fold down
    /// times 19, twice, which leaves less than `2q`, and one conditional
    /// subtraction finishes.
    fn reduce_q(&self, x: &BigUint) -> BigUint {
        const LOW_255: u64 = (1 << 63) - 1;
        let limbs = x.limbs();
        if limbs.len() > 8 {
            return x.rem(&self.q);
        }
        // Limb 8 stays zero: it is only read as the top of `hi`.
        let mut v = [0u64; 9];
        v[..limbs.len()].copy_from_slice(limbs);
        for _ in 0..2 {
            let mut hi = [0u64; 5];
            for (i, h) in hi.iter_mut().enumerate() {
                *h = (v[3 + i] >> 63) | (v[4 + i] << 1);
            }
            v[3] &= LOW_255;
            v[4..].fill(0);
            let mut carry = 0u128;
            for (limb, h) in v.iter_mut().zip(hi) {
                let cur = *limb as u128 + 19 * h as u128 + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            v[5] = carry as u64;
        }
        // Now v < 2^255 + 19·2^7: four limbs, and below 2q.
        let q = self.q.limbs();
        if v[..4].iter().rev().cmp(q.iter().rev()) != std::cmp::Ordering::Less {
            let mut borrow = false;
            for (limb, &q) in v.iter_mut().zip(q) {
                let (d, b1) = limb.overflowing_sub(q);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *limb = d;
                borrow = b1 | b2;
            }
        }
        BigUint::from_limbs(v[..4].to_vec())
    }
}

/// SHA-256 over the parts, each length-prefixed so that concatenation is
/// unambiguous.
fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update(&(part.len() as u64).to_le_bytes());
        h.update(part);
    }
    h.finalize()
}

/// The challenge preimage `H(R ‖ y ‖ m)` before its reduction into Z_q:
/// both elements as minimal big-endian bytes. The scalar `e` is this
/// digest mod q; the batch randomisers hash the digest itself.
fn challenge_digest(r: &BigUint, y: &BigUint, message: &[u8]) -> Digest {
    // The head of `hash_parts`' input, laid out on the stack: R's and y's
    // lengths and bytes, then the message's length.
    let mut head = [0u8; 3 * 8 + 2 * ELEMENT_LEN];
    let mut at = 0;
    for x in [r, y] {
        let len = x.bits().div_ceil(8) as usize;
        if len > ELEMENT_LEN {
            return hash_parts(&[&r.to_bytes_be(), &y.to_bytes_be(), message]);
        }
        head[at..at + 8].copy_from_slice(&(len as u64).to_le_bytes());
        x.write_bytes_be(&mut head[at + 8..at + 8 + len]);
        at += 8 + len;
    }
    head[at..at + 8].copy_from_slice(&(message.len() as u64).to_le_bytes());
    sha256_pair(&head[..at + 8], message)
}

/// A Schnorr secret key (scalar in [1, q-1]).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    x: BigUint,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A Schnorr public key (group element y = g^x mod p).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey {
    y: BigUint,
}

/// Bytes of a group element on the wire: p has 260 bits.
const ELEMENT_LEN: usize = 33;
/// Bytes of a scalar on the wire: q has 255 bits.
const SCALAR_LEN: usize = 32;

/// A Schnorr signature `(R, s)`: the nonce commitment `R = g^k` and the
/// response `s = k + e·x mod q` with `e = H(R ‖ y ‖ m)`.
///
/// Carrying `R` rather than `e` is what lets a verifier hash before it
/// exponentiates, and so check many signatures as one product
/// ([`verify_batch`]). Every value of this type has `0 < R < p` and
/// `s < q`: [`Signature::new`] and `Decode` are the only ways in and both
/// check, so verification and encoding never meet an out-of-range field.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    r: BigUint,
    s: BigUint,
}

impl Signature {
    /// Encoded length: 33 bytes of `R` then 32 bytes of `s`, both
    /// big-endian and fixed-width, no length prefixes.
    pub const LEN: usize = ELEMENT_LEN + SCALAR_LEN;

    /// Wraps `(R, s)`; `None` unless `0 < R < p` and `s < q`.
    pub fn new(r: BigUint, s: BigUint) -> Option<Signature> {
        let group = Group::standard();
        let in_range = !r.is_zero()
            && r.cmp_val(&group.p) == std::cmp::Ordering::Less
            && s.cmp_val(&group.q) == std::cmp::Ordering::Less;
        in_range.then_some(Signature { r, s })
    }

    /// The nonce commitment `R`.
    pub fn r(&self) -> &BigUint {
        &self.r
    }

    /// The response scalar `s`.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// The canonical encoding, written straight from the limbs.
    pub fn to_wire(&self) -> [u8; Signature::LEN] {
        let mut out = [0u8; Signature::LEN];
        self.r.write_bytes_be(&mut out[..ELEMENT_LEN]);
        self.s.write_bytes_be(&mut out[ELEMENT_LEN..]);
        out
    }
}

/// A secret/public key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// Secret signing key.
    pub secret: SecretKey,
    /// Public verification key.
    pub public: PublicKey,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> KeyPair {
        let group = Group::standard();
        let q_minus_1 = group.q.sub(&BigUint::one());
        let x = BigUint::random_below(rng, &q_minus_1).add(&BigUint::one());
        let y = group.pow_g(&x);
        KeyPair {
            secret: SecretKey { x },
            public: PublicKey { y },
        }
    }

    /// Deterministic key pair from a 64-bit seed (test/simulation helper).
    pub fn from_seed(seed: u64) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::generate(&mut rng)
    }

    /// Signs a message with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign(&self.public, message)
    }
}

impl SecretKey {
    /// Signs `message`, binding the signature to `public`.
    pub fn sign(&self, public: &PublicKey, message: &[u8]) -> Signature {
        let group = Group::standard();
        // Deterministic nonce: HMAC(x, message), reduced into [1, q-1].
        let sk_bytes = self.x.to_bytes_be();
        let tag = hmac_sha256(&sk_bytes, message);
        let mut k = group.to_scalar(&tag);
        if k.is_zero() {
            k = BigUint::one();
        }
        let r = group.pow_g(&k);
        let e = group.to_scalar(&challenge_digest(&r, &public.y, message));
        // s = k + e*x mod q
        let s = k.add_mod(&group.reduce_q(&e.mul(&self.x)), &group.q);
        Signature { r, s }
    }

    /// Exposes the scalar (for key-derivation use inside the workspace).
    pub fn scalar(&self) -> &BigUint {
        &self.x
    }
}

impl PublicKey {
    /// The key's range check, shared by every verification path: `false`
    /// (reject) for a degenerate key. The signature's own ranges hold by
    /// construction ([`Signature::new`]).
    fn in_range(&self, group: &Group) -> bool {
        !self.y.is_zero()
            && !self.y.is_one()
            && self.y.cmp_val(&group.p) == std::cmp::Ordering::Less
    }

    /// Verifies a signature over `message` (Montgomery fast path).
    ///
    /// Hashes `e = H(R ‖ y ‖ m)`, computes `T = g^s · y^(q-e) mod p` in
    /// one walk over the generator's comb and this key's
    /// ([`Group::dual_pow_g`]), and accepts iff `T²⁸ = R²⁸` (at once when
    /// `T = R`, which is every honestly made signature, so the common case
    /// pays nothing for the cofactor). Because p = 28q + 1, raising both
    /// sides to the cofactor projects them onto the subgroup of order q:
    /// the check is `g^{28s} = (R · y^e)^{28}` for every `R` and `y` in
    /// Z_p*, whatever small-order component either carries, which is
    /// exactly the per-member condition [`verify_batch`] tests. Accept /
    /// reject decisions are identical to [`Self::verify_reference`] —
    /// pinned by property tests.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let group = Group::standard();
        if !self.in_range(group) {
            return false;
        }
        let e = group.to_scalar(&challenge_digest(&sig.r, &self.y, message));
        // y^{28(q - e)} = y^{-28e}: y^{28q} = y^{p-1} = 1 for every unit.
        let t = group.dual_pow_g(&sig.s, &self.y, &group.q.sub(&e));
        // An honest signature has T = R outright; only what is not equal
        // pays for the 28th powers, and the accepted set is the same.
        t == sig.r || Group::ctx().mont.eq_pow_u64(&t, &sig.r, GROUP_K)
    }

    /// Schoolbook verification of the same equation, written the other
    /// way round (`(g^s)²⁸ = (R · y^e)²⁸`, independent `modpow`s with
    /// divrem reduction) — the oracle the fast path and the batch are
    /// equivalence-tested against.
    pub fn verify_reference(&self, message: &[u8], sig: &Signature) -> bool {
        let group = Group::standard();
        if !self.in_range(group) {
            return false;
        }
        let cofactor = BigUint::from_u64(GROUP_K);
        let e = group.to_scalar(&challenge_digest(&sig.r, &self.y, message));
        let lhs = group.g.modpow_schoolbook(&sig.s, &group.p);
        let rhs = self
            .y
            .modpow_schoolbook(&e, &group.p)
            .mul_mod(&sig.r, &group.p);
        lhs.modpow_schoolbook(&cofactor, &group.p) == rhs.modpow_schoolbook(&cofactor, &group.p)
    }

    /// The group element.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Wraps a raw group element as a public key.
    ///
    /// Used by the threshold-governance layer, whose group public key
    /// `Y = Π A_{i,0}` and per-validator share commitments `Y_i = g^{s_i}`
    /// are products of DKG commitments rather than outputs of
    /// [`KeyPair::generate`]. Degenerate elements (0, 1, ≥ p) are still
    /// rejected by [`Self::verify`]'s range checks.
    pub fn from_element(y: BigUint) -> PublicKey {
        PublicKey { y }
    }

    /// Canonical byte encoding (length-prefixed big-endian element).
    pub fn to_bytes(&self) -> Vec<u8> {
        Encode::to_bytes(self)
    }

    /// Bytes of [`Self::to_bytes`], without encoding: the `u64` length,
    /// then the element's minimal big-endian width.
    pub fn encoded_len(&self) -> usize {
        8 + self.y.bits().div_ceil(8) as usize
    }
}

impl Encode for PublicKey {
    fn encode(&self, enc: &mut Encoder) {
        self.y.encode_into(enc);
    }
}

impl Decode for PublicKey {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PublicKey {
            y: BigUint::decode_from(dec)?,
        })
    }
}

impl Encode for Signature {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.to_wire());
    }
}

impl Decode for Signature {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let r = BigUint::from_bytes_be(dec.take(ELEMENT_LEN)?);
        let s = BigUint::from_bytes_be(dec.take(SCALAR_LEN)?);
        Signature::new(r, s).ok_or(DecodeError::Invalid("signature out of range"))
    }
}

/// One member of a batch: the key, the message and the signature over it.
pub type BatchItem<'a> = (&'a PublicKey, &'a [u8], &'a Signature);

/// Below this many members [`verify_batch`] loops over
/// [`PublicKey::verify`]. A single check is about 392 kernel
/// multiplications; the bucket method, which pays its squarings and its
/// fold per window however few terms share them, needs 487 per member at
/// two members, 343 at three and 294 at four, and outside the kernel a
/// member of a batch also costs three hashes and two wide products that a
/// single check does not. Measured, the batch first wins at four
/// (DESIGN.md §5d has the counts and the clock side by side). A constant
/// of the arithmetic, not a knob.
pub const BATCH_MIN: usize = 4;

/// The randomisers `aᵢ` of a batch, hashed from the batch itself:
/// `seed = H(tag ‖ n ‖ (H(Rᵢ ‖ yᵢ ‖ mᵢ) ‖ sᵢ)ᵢ)` and
/// `aᵢ = H(seed ‖ i)` truncated to 16 bytes, with 2¹²⁸ in place of 0: 2¹²⁸
/// values, none of them zero, each as likely as another, all below q. The
/// seed commits to every member in order, so no `aᵢ` can be known before
/// the whole batch is fixed and the verdict is a pure function of the
/// batch.
fn randomisers(items: &[BatchItem<'_>], challenges: &[Digest]) -> Vec<BigUint> {
    let mut h = Sha256::new();
    h.update(b"pds2-schnorr-batch-v1");
    h.update(&(items.len() as u64).to_le_bytes());
    let mut s_bytes = [0u8; SCALAR_LEN];
    for ((_, _, sig), challenge) in items.iter().zip(challenges) {
        h.update(challenge.as_bytes());
        sig.s.write_bytes_be(&mut s_bytes);
        h.update(&s_bytes);
    }
    let seed = h.finalize();
    (0..items.len() as u64)
        .map(|i| {
            let mut h = Sha256::new();
            h.update(seed.as_bytes());
            h.update(&i.to_le_bytes());
            let mut low = [0u8; 16];
            low.copy_from_slice(&h.finalize().as_bytes()[..16]);
            match u128::from_le_bytes(low) {
                0 => BigUint::one().shl(128),
                a => BigUint::from_u128(a),
            }
        })
        .collect()
}

/// The randomisers [`verify_batch`] would draw for `items` (test hook:
/// they must depend on the batch only, and on all of it).
#[doc(hidden)]
pub fn batch_randomisers(items: &[BatchItem<'_>]) -> Vec<BigUint> {
    randomisers(items, &challenge_digests(items))
}

/// `H(Rᵢ ‖ yᵢ ‖ mᵢ)` for every member.
fn challenge_digests(items: &[BatchItem<'_>]) -> Vec<Digest> {
    items
        .iter()
        .map(|(key, message, sig)| challenge_digest(&sig.r, &key.y, message))
        .collect()
}

/// Verifies every member of `items` as ONE random-linear-combination
/// check: with `eᵢ = H(Rᵢ ‖ yᵢ ‖ mᵢ)` and randomisers `aᵢ` hashed from
/// the batch, accept iff
///
/// `( g^{−Σ aᵢsᵢ} · Π Rᵢ^{aᵢ} · Π yᵢ^{aᵢeᵢ} )²⁸ = 1`,
///
/// one Pippenger multi-exponentiation ([`MontgomeryCtx::multi_pow`]) and
/// one cofactor step. The 28th power makes this the product of the
/// members' own conditions `Xᵢ = (Rᵢ · yᵢ^{eᵢ} · g^{−sᵢ})²⁸ = 1` raised to
/// `aᵢ`, inside the subgroup of prime order q: a batch whose members all
/// pass [`PublicKey::verify`] always passes, and one with a member that
/// fails it passes with probability at most 2⁻¹²⁸ (the `aᵢ` range over
/// 2¹²⁸ values below q, so `Xᵢ^{aᵢ}` takes 2¹²⁸ distinct values when
/// `Xᵢ ≠ 1` and at most one of them cancels the rest of the product).
/// Below [`BATCH_MIN`] members, where buckets lose, it loops over `verify`.
///
/// Members under one key share its term: the key is raised once, to its
/// members' `aᵢeᵢ` summed mod q, so `n` members under `k` distinct keys
/// are `n + k + 1` terms (`2n + 1` when no key repeats, as in a block of
/// transfers from distinct senders). Reducing the sum rather than each
/// product moves the product by an element of small order at most, which
/// the 28th power removes: the verdict is the per-member terms' verdict.
pub fn verify_batch(items: &[BatchItem<'_>]) -> bool {
    if items.len() < BATCH_MIN {
        return items
            .iter()
            .all(|(key, message, sig)| key.verify(message, sig));
    }
    let group = Group::standard();
    if !items.iter().all(|(key, _, _)| key.in_range(group)) {
        return false;
    }
    let challenges = challenge_digests(items);
    let a = randomisers(items, &challenges);
    // Σ aᵢsᵢ and each key's Σ aᵢeᵢ are reduced once, at the end. Each
    // distinct key is one term, found by its limbs (a key in range is
    // below p, five limbs at most).
    let mut s_sum = BigUint::zero();
    let mut key_at: HashMap<[u64; 5], usize> = HashMap::with_capacity(items.len());
    let mut keys: Vec<(&BigUint, BigUint)> = Vec::new();
    for (((key, _, sig), challenge), a) in items.iter().zip(&challenges).zip(&a) {
        s_sum = s_sum.add(&a.mul(&sig.s));
        let ae = a.mul(&group.to_scalar(challenge));
        match key_at.entry(low_limbs(&key.y)) {
            Entry::Occupied(at) => {
                let sum = &mut keys[*at.get()].1;
                *sum = sum.add(&ae);
            }
            Entry::Vacant(at) => {
                at.insert(keys.len());
                keys.push((&key.y, ae));
            }
        }
    }
    let g_exp = group.q.sub(&group.reduce_q(&s_sum));
    let ae: Vec<BigUint> = keys.iter().map(|(_, sum)| group.reduce_q(sum)).collect();
    let mut terms: Vec<(&BigUint, &BigUint)> = Vec::with_capacity(items.len() + keys.len() + 1);
    terms.push((&group.g, &g_exp));
    terms.extend(items.iter().zip(&a).map(|((_, _, sig), a)| (&sig.r, a)));
    terms.extend(keys.iter().map(|(y, _)| *y).zip(&ae));
    let mont = &Group::ctx().mont;
    mont.eq_pow_u64(&mont.multi_pow(&terms), &BigUint::one(), GROUP_K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parameters_are_sound() {
        let g = Group::standard();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(g.q.is_probable_prime(&mut rng, 8));
        assert!(g.p.is_probable_prime(&mut rng, 8));
        // q divides p - 1.
        let p_minus_1 = g.p.sub(&BigUint::one());
        assert!(p_minus_1.rem(&g.q).is_zero());
        // Generator has order exactly q (prime order: g != 1 and g^q = 1).
        assert!(!g.g.is_one());
        assert!(g.g.modpow(&g.q, &g.p).is_one());
        assert_eq!(g.q.bits(), 255);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"hello pds2");
        assert!(kp.public.verify(b"hello pds2", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = KeyPair::from_seed(2);
        let sig = kp.sign(b"message A");
        assert!(!kp.public.verify(b"message B", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = KeyPair::from_seed(3);
        let kp2 = KeyPair::from_seed(4);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = KeyPair::from_seed(5);
        let mut sig = kp.sign(b"msg");
        sig.s = sig.s.add_mod(&BigUint::one(), &Group::standard().q);
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_scalars() {
        let group = Group::standard();
        let sig = KeyPair::from_seed(6).sign(b"msg");
        let cases = [
            (BigUint::zero(), sig.s.clone()),
            (group.p.clone(), sig.s.clone()),
            (group.p.add(&BigUint::one()), sig.s.clone()),
            (sig.r.clone(), group.q.clone()),
        ];
        for (r, s) in cases {
            assert!(Signature::new(r.clone(), s.clone()).is_none());
            let mut wire = [0u8; Signature::LEN];
            r.write_bytes_be(&mut wire[..ELEMENT_LEN]);
            s.write_bytes_be(&mut wire[ELEMENT_LEN..]);
            assert_eq!(
                Signature::from_bytes(&wire),
                Err(DecodeError::Invalid("signature out of range"))
            );
        }
        let top = Signature::new(group.p.sub(&BigUint::one()), group.q.sub(&BigUint::one()));
        let top = top.expect("the largest values in range");
        assert_eq!(Signature::from_bytes(&top.to_wire()), Ok(top));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = KeyPair::from_seed(7);
        assert_eq!(kp.sign(b"same"), kp.sign(b"same"));
        assert_ne!(kp.sign(b"one"), kp.sign(b"two"));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let kp1 = KeyPair::from_seed(8);
        let kp2 = KeyPair::from_seed(9);
        assert_ne!(kp1.public, kp2.public);
    }

    #[test]
    fn signature_codec_roundtrip() {
        let kp = KeyPair::from_seed(10);
        let sig = kp.sign(b"encode me");
        let bytes = Encode::to_bytes(&sig);
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(kp.public.verify(b"encode me", &back));

        let pk_bytes = kp.public.to_bytes();
        let pk = PublicKey::from_bytes(&pk_bytes).unwrap();
        assert_eq!(pk, kp.public);
    }

    #[test]
    fn fast_and_reference_verification_agree() {
        for seed in 0..8u64 {
            let kp = KeyPair::from_seed(100 + seed);
            let msg = seed.to_le_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public.verify(&msg, &sig));
            assert!(kp.public.verify_reference(&msg, &sig));
            // Tampered response scalar: both paths must reject.
            let mut bad = sig.clone();
            bad.s = bad.s.add_mod(&BigUint::one(), &Group::standard().q);
            assert!(!kp.public.verify(&msg, &bad));
            assert!(!kp.public.verify_reference(&msg, &bad));
            // Wrong message: both paths must reject.
            assert!(!kp.public.verify(b"other", &sig));
            assert!(!kp.public.verify_reference(b"other", &sig));
        }
    }

    /// Known answer: signing output, the 65 wire bytes and every verdict
    /// (single, reference and batched) are pinned at this layer, not only
    /// through the chain's golden traces.
    #[test]
    fn known_answer_signature_and_verdicts() {
        let group = Group::standard();
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"pds2-kat");
        assert_eq!(
            sig.r.to_hex(),
            "3b341df893f1ed7049ea766bfe80f8fc76f6b42b642dd39b88c102c8a484b13ce"
        );
        assert_eq!(
            sig.s.to_hex(),
            "16afb599f6f28e2a86b3a06bf333a2d74c6879a918c3504c0fd61b7b7339fb54"
        );
        // The (R, s) wire format: 33 bytes of R, 32 bytes of s, no prefixes.
        let wire: String = Encode::to_bytes(&sig)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            wire,
            concat!(
                "03b341df893f1ed7049ea766bfe80f8fc76f6b42b642dd39b88c102c8a484b13ce",
                "16afb599f6f28e2a86b3a06bf333a2d74c6879a918c3504c0fd61b7b7339fb54",
            )
        );

        let other = KeyPair::from_seed(8);
        let check = |name: &str, pk: &PublicKey, msg: &[u8], sig: &Signature, verdict: bool| {
            assert_eq!(pk.verify(msg, sig), verdict, "verify: {name}");
            assert_eq!(pk.verify_reference(msg, sig), verdict, "reference: {name}");
            // A batch large enough to take the bucket path, with the case
            // at its last position.
            let filler = other.sign(b"filler");
            let mut batch: Vec<BatchItem<'_>> = vec![(&other.public, b"filler", &filler); 7];
            batch.push((pk, msg, sig));
            assert_eq!(verify_batch(&batch), verdict, "batch: {name}");
        };
        let (pk, msg) = (&kp.public, b"pds2-kat");
        check("valid", pk, msg, &sig, true);
        check("flipped message bit", pk, b"pds2-kau", &sig, false);
        let one = BigUint::one();
        let with = |r: &BigUint, s: &BigUint| Signature::new(r.clone(), s.clone()).unwrap();
        check("s + 1", pk, msg, &with(&sig.r, &sig.s.add(&one)), false);
        check("R + 1", pk, msg, &with(&sig.r.add(&one), &sig.s), false);
        check("another key's", pk, msg, &other.sign(msg), false);
        // An element of order 2 mixed into R after signing changes e, so
        // it is refused like any other R (the proptests craft the tainted
        // signatures that every path must accept alike).
        let minus_one = group.p.sub(&one);
        let negated = with(&sig.r.mul_mod(&minus_one, &group.p), &sig.s);
        check("R · (p − 1)", pk, msg, &negated, false);
        for y in [BigUint::zero(), BigUint::one(), group.p.clone()] {
            check(
                "y in {0, 1, p}",
                &PublicKey::from_element(y),
                msg,
                &sig,
                false,
            );
        }
    }

    #[test]
    fn repeated_verifies_of_one_key_agree_with_reference() {
        // The first verify builds the key's comb, the later ones reuse
        // it: every one must keep agreeing with the reference path.
        let kp = KeyPair::from_seed(77);
        for i in 0..5u64 {
            let msg = i.to_le_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public.verify(&msg, &sig));
            assert!(kp.public.verify_reference(&msg, &sig));
        }
    }

    #[test]
    fn reduce_q_is_rem_without_the_division() {
        let group = Group::standard();
        let q = &group.q;
        let one = BigUint::one();
        let pow = |bits: u32| one.shl(bits);
        let mut cases = vec![
            BigUint::zero(),
            one.clone(),
            q.sub(&one),
            q.clone(),
            q.add(&one),
            q.mul_u64(2).sub(&one),
            q.mul_u64(2),
            pow(255),
            pow(255).sub(&one),
            pow(256).sub(&one),
            pow(383).sub(&one),
            pow(512).sub(&one),
            pow(512),
            pow(600).add(&one),
            q.mul(q),
            q.mul(q).sub(&one),
        ];
        let mut rng = StdRng::seed_from_u64(33);
        for bits in [1u32, 64, 254, 255, 256, 257, 300, 383, 391, 511, 512] {
            cases.extend((0..16).map(|_| BigUint::random_bits(&mut rng, bits)));
        }
        for x in cases {
            assert_eq!(group.reduce_q(&x), x.rem(q), "x={x:?}");
        }
    }

    #[test]
    fn a_keys_comb_fits_in_2_4_kilobytes_and_the_generators_in_20() {
        let ctx = Group::ctx();
        let key = KeyPair::from_seed(23).public;
        assert_eq!(ctx.mont.comb(&key.y, KEY_COMB).heap_bytes(), 4 * 15 * 40);
        assert_eq!(ctx.g_comb.heap_bytes(), 2 * 255 * 40);
    }

    #[test]
    fn shipped_group_matches_derivation_shape() {
        let g = Group::standard();
        // p = 28q + 1 and g = 2^28.
        assert_eq!(g.p, g.q.mul_u64(28).add(&BigUint::one()));
        assert_eq!(g.g, BigUint::one().shl(28));
    }

    #[test]
    fn dual_pow_g_matches_schoolbook() {
        let group = Group::standard();
        let kp = KeyPair::from_seed(21);
        let y = kp.public.element();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(600 + seed);
            let a = BigUint::random_below(&mut rng, &group.q);
            let b = BigUint::random_below(&mut rng, &group.q);
            let fast = group.dual_pow_g(&a, y, &b);
            let reference = group
                .g
                .modpow_schoolbook(&a, &group.p)
                .mul_mod(&y.modpow_schoolbook(&b, &group.p), &group.p);
            assert_eq!(fast, reference, "seed {seed}");
        }
    }

    #[test]
    fn public_key_from_element_roundtrips() {
        let kp = KeyPair::from_seed(22);
        let rebuilt = PublicKey::from_element(kp.public.element().clone());
        assert_eq!(rebuilt, kp.public);
        let sig = kp.sign(b"element");
        assert!(rebuilt.verify(b"element", &sig));
    }

    #[test]
    fn cross_key_signature_forgery_fails() {
        // A signature bound to pk1 must not verify as pk2 even if the
        // attacker copies it verbatim.
        let kp1 = KeyPair::from_seed(11);
        let kp2 = KeyPair::from_seed(12);
        let sig = kp1.sign(b"payment");
        assert!(kp1.public.verify(b"payment", &sig));
        assert!(!kp2.public.verify(b"payment", &sig));
    }
}
