//! # pds2-he
//!
//! Paillier additively homomorphic encryption — the **homomorphic
//! encryption** candidate from §III-B of the PDS² paper.
//!
//! The paper argues that HE "provide\[s\] confidentiality guarantees derived
//! from cryptographic principles" but "introduce\[s\] large overheads in the
//! computation … impractical for most applications". This crate makes that
//! claim measurable: it performs real Paillier arithmetic over the
//! workspace's own bignum library, so experiment E4 can compare plaintext,
//! HE, SMC and TEE inference on equal footing.
//!
//! Supported operations (the additive subset relevant to linear workloads):
//!
//! - `Enc(a) ⊕ Enc(b) = Enc(a + b)` — [`PublicKey::add`]
//! - `Enc(a) ⊗ k = Enc(a · k)` — [`PublicKey::mul_plain`]
//! - encrypted dot products for linear-model inference — [`encrypted_dot`]
//!
//! Signed values are encoded into `Z_n` by modular wrap-around
//! ([`PublicKey::encode_signed`] / [`PrivateKey::decode_signed`]); real
//! features use fixed-point scaling ([`fixed`]).

#![forbid(unsafe_code)]

use pds2_crypto::bigint::BigUint;
use rand::Rng;

/// Fixed-point helpers for carrying `f64` features through `Z_n`.
pub mod fixed {
    /// Default fixed-point scale (2^20 ≈ 1e6 resolution).
    pub const SCALE: f64 = 1_048_576.0;

    /// Converts an `f64` into a scaled integer.
    pub fn to_fixed(v: f64) -> i64 {
        (v * SCALE).round() as i64
    }
}

/// A Paillier public key `(n, n²)` with `g = n + 1` implied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    n_squared: BigUint,
    half_n: BigUint,
}

/// A Paillier private key (Carmichael value λ and precomputed μ).
#[derive(Clone)]
pub struct PrivateKey {
    /// Matching public key.
    pub public: PublicKey,
    lambda: BigUint,
    mu: BigUint,
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrivateKey(n={} bits, <redacted>)", self.public.n.bits())
    }
}

/// A Paillier ciphertext (element of `Z_{n²}*`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext(BigUint);

impl Ciphertext {
    /// Raw group element (for serialization / size accounting).
    pub fn value(&self) -> &BigUint {
        &self.0
    }

    /// Ciphertext size in bytes (for communication accounting in E4).
    pub fn byte_len(&self) -> usize {
        self.0.to_bytes_be().len()
    }
}

/// Errors from key generation or decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeError {
    /// Requested modulus is too small to be useful.
    KeyTooSmall,
    /// A plaintext fell outside `Z_n`.
    PlaintextOutOfRange,
    /// Ciphertext failed the `Z_{n²}` membership check.
    CiphertextOutOfRange,
}

impl std::fmt::Display for HeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeError::KeyTooSmall => write!(f, "modulus must be at least 32 bits"),
            HeError::PlaintextOutOfRange => write!(f, "plaintext out of range for modulus"),
            HeError::CiphertextOutOfRange => write!(f, "ciphertext out of range"),
        }
    }
}

impl std::error::Error for HeError {}

/// Generates a Paillier key pair with an `n_bits`-bit modulus.
///
/// `n_bits = 512` is comfortable for tests; benchmarks sweep larger sizes.
pub fn generate_keypair<R: Rng + ?Sized>(rng: &mut R, n_bits: u32) -> Result<PrivateKey, HeError> {
    if n_bits < 32 {
        return Err(HeError::KeyTooSmall);
    }
    let half = n_bits / 2;
    loop {
        let p = BigUint::random_prime(rng, half);
        let q = BigUint::random_prime(rng, n_bits - half);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        let p1 = p.sub(&BigUint::one());
        let q1 = q.sub(&BigUint::one());
        let phi = p1.mul(&q1);
        // gcd(n, φ(n)) must be 1; guaranteed for distinct same-size primes,
        // but check anyway.
        if !n.gcd(&phi).is_one() {
            continue;
        }
        // λ = lcm(p-1, q-1)
        let lambda = phi.divrem(&p1.gcd(&q1)).0;
        let n_squared = n.mul(&n);
        // μ = (L(g^λ mod n²))^{-1} mod n with g = n+1:
        // g^λ = (1+n)^λ = 1 + λ·n (mod n²), so L(g^λ) = λ mod n.
        let mu = match lambda.rem(&n).modinv(&n) {
            Some(m) => m,
            None => continue,
        };
        let half_n = n.shr(1);
        return Ok(PrivateKey {
            public: PublicKey {
                n,
                n_squared,
                half_n,
            },
            lambda,
            mu,
        });
    }
}

impl PublicKey {
    /// Modulus bit length.
    pub fn bits(&self) -> u32 {
        self.n.bits()
    }

    /// Encrypts a plaintext in `Z_n`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        m: &BigUint,
    ) -> Result<Ciphertext, HeError> {
        if m.cmp_val(&self.n) != std::cmp::Ordering::Less {
            return Err(HeError::PlaintextOutOfRange);
        }
        // r uniform in Z_n*, i.e. gcd(r, n) = 1.
        let r = loop {
            let candidate = BigUint::random_below(rng, &self.n);
            if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        };
        // c = (1+n)^m · r^n mod n² = (1 + m·n) · r^n mod n².
        let g_m = BigUint::one().add(&m.mul(&self.n).rem(&self.n_squared));
        let r_n = r.modpow(&self.n, &self.n_squared);
        Ok(Ciphertext(g_m.mul_mod(&r_n, &self.n_squared)))
    }

    /// Encrypts a signed 64-bit integer via wrap-around encoding.
    pub fn encrypt_signed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        v: i64,
    ) -> Result<Ciphertext, HeError> {
        let m = self.encode_signed(v)?;
        self.encrypt(rng, &m)
    }

    /// Maps a signed integer into `Z_n` (negatives as `n - |v|`).
    pub fn encode_signed(&self, v: i64) -> Result<BigUint, HeError> {
        let mag = BigUint::from_u64(v.unsigned_abs());
        if mag.cmp_val(&self.half_n) != std::cmp::Ordering::Less {
            return Err(HeError::PlaintextOutOfRange);
        }
        Ok(if v < 0 { self.n.sub(&mag) } else { mag })
    }

    /// Homomorphic addition: `Enc(a) ⊕ Enc(b) = Enc(a + b mod n)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(a.0.mul_mod(&b.0, &self.n_squared))
    }

    /// Homomorphic plaintext multiplication: `Enc(a) ⊗ k = Enc(a·k mod n)`.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(a.0.modpow(k, &self.n_squared))
    }

    /// Homomorphic multiplication by a signed plaintext.
    pub fn mul_plain_signed(&self, a: &Ciphertext, k: i64) -> Result<Ciphertext, HeError> {
        let enc = self.encode_signed(k)?;
        Ok(self.mul_plain(a, &enc))
    }

    /// A trivial (deterministic) encryption of zero, used as the additive
    /// identity when folding.
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext(BigUint::one())
    }
}

impl PrivateKey {
    /// Decrypts a ciphertext to its plaintext residue in `Z_n`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint, HeError> {
        let pk = &self.public;
        if c.0.is_zero() || c.0.cmp_val(&pk.n_squared) != std::cmp::Ordering::Less {
            return Err(HeError::CiphertextOutOfRange);
        }
        // m = L(c^λ mod n²) · μ mod n, L(x) = (x - 1) / n.
        let x = c.0.modpow(&self.lambda, &pk.n_squared);
        let l = x.sub(&BigUint::one()).divrem(&pk.n).0;
        Ok(l.mul_mod(&self.mu, &pk.n))
    }

    /// Decrypts and decodes a wrap-around signed integer.
    pub fn decrypt_signed(&self, c: &Ciphertext) -> Result<i64, HeError> {
        let m = self.decrypt(c)?;
        self.decode_signed(&m)
    }

    /// Decodes a `Z_n` residue into a signed integer.
    pub fn decode_signed(&self, m: &BigUint) -> Result<i64, HeError> {
        let pk = &self.public;
        if m.cmp_val(&pk.half_n) == std::cmp::Ordering::Less {
            m.to_u64()
                .and_then(|v| i64::try_from(v).ok())
                .ok_or(HeError::PlaintextOutOfRange)
        } else {
            let mag = pk.n.sub(m);
            mag.to_u64()
                .and_then(|v| i64::try_from(v).ok())
                .map(|v| -v)
                .ok_or(HeError::PlaintextOutOfRange)
        }
    }
}

/// Computes `Enc(Σ wᵢ·xᵢ)` from encrypted weights and plaintext features.
///
/// This is the HE inference kernel of experiment E4: the data consumer's
/// model weights stay encrypted; the party holding the features performs
/// `d` ciphertext exponentiations and `d-1` ciphertext multiplications.
pub fn encrypted_dot(
    pk: &PublicKey,
    encrypted_weights: &[Ciphertext],
    features: &[i64],
) -> Result<Ciphertext, HeError> {
    assert_eq!(
        encrypted_weights.len(),
        features.len(),
        "dimension mismatch"
    );
    let mut acc = pk.zero_ciphertext();
    for (w, &x) in encrypted_weights.iter().zip(features) {
        if x == 0 {
            continue;
        }
        let term = pk.mul_plain_signed(w, x)?;
        acc = pk.add(&acc, &term);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(bits: u32, seed: u64) -> PrivateKey {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_keypair(&mut rng, bits).unwrap()
    }

    #[test]
    fn keygen_rejects_tiny_modulus() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            generate_keypair(&mut rng, 16).unwrap_err(),
            HeError::KeyTooSmall
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let sk = key(128, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for v in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let m = BigUint::from_u64(v);
            let c = sk.public.encrypt(&mut rng, &m).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), m, "v={v}");
        }
    }

    #[test]
    fn encryption_is_probabilistic() {
        let sk = key(128, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = BigUint::from_u64(7);
        let c1 = sk.public.encrypt(&mut rng, &m).unwrap();
        let c2 = sk.public.encrypt(&mut rng, &m).unwrap();
        assert_ne!(c1, c2, "same plaintext must yield different ciphertexts");
        assert_eq!(sk.decrypt(&c1).unwrap(), sk.decrypt(&c2).unwrap());
    }

    #[test]
    fn homomorphic_addition() {
        let sk = key(128, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let a = sk
            .public
            .encrypt(&mut rng, &BigUint::from_u64(100))
            .unwrap();
        let b = sk.public.encrypt(&mut rng, &BigUint::from_u64(23)).unwrap();
        let sum = sk.public.add(&a, &b);
        assert_eq!(sk.decrypt(&sum).unwrap(), BigUint::from_u64(123));
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let sk = key(128, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let a = sk.public.encrypt(&mut rng, &BigUint::from_u64(9)).unwrap();
        let c = sk.public.mul_plain(&a, &BigUint::from_u64(11));
        assert_eq!(sk.decrypt(&c).unwrap(), BigUint::from_u64(99));
    }

    #[test]
    fn signed_roundtrip() {
        let sk = key(128, 9);
        let mut rng = StdRng::seed_from_u64(10);
        for v in [-1_000_000i64, -1, 0, 1, 987654] {
            let c = sk.public.encrypt_signed(&mut rng, v).unwrap();
            assert_eq!(sk.decrypt_signed(&c).unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn signed_arithmetic() {
        let sk = key(128, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let a = sk.public.encrypt_signed(&mut rng, -5).unwrap();
        let b = sk.public.encrypt_signed(&mut rng, 3).unwrap();
        let sum = sk.public.add(&a, &b);
        assert_eq!(sk.decrypt_signed(&sum).unwrap(), -2);
        let prod = sk.public.mul_plain_signed(&a, -4).unwrap();
        assert_eq!(sk.decrypt_signed(&prod).unwrap(), 20);
    }

    #[test]
    fn encrypted_dot_product() {
        let sk = key(160, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let weights = [3i64, -2, 0, 7];
        let features = [10i64, 5, 999, -1];
        let enc_w: Vec<Ciphertext> = weights
            .iter()
            .map(|&w| sk.public.encrypt_signed(&mut rng, w).unwrap())
            .collect();
        let dot = encrypted_dot(&sk.public, &enc_w, &features).unwrap();
        let expected: i64 = weights.iter().zip(&features).map(|(w, x)| w * x).sum();
        assert_eq!(sk.decrypt_signed(&dot).unwrap(), expected);
    }

    #[test]
    fn plaintext_out_of_range_rejected() {
        let sk = key(64, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let too_big = sk.public.n.clone();
        assert_eq!(
            sk.public.encrypt(&mut rng, &too_big).unwrap_err(),
            HeError::PlaintextOutOfRange
        );
    }

    #[test]
    fn ciphertext_out_of_range_rejected() {
        let sk = key(64, 17);
        let big = Ciphertext(sk.public.n.mul(&sk.public.n));
        assert_eq!(sk.decrypt(&big).unwrap_err(), HeError::CiphertextOutOfRange);
        assert_eq!(
            sk.decrypt(&Ciphertext(BigUint::zero())).unwrap_err(),
            HeError::CiphertextOutOfRange
        );
    }

    #[test]
    fn fixed_point_helpers() {
        use super::fixed::*;
        let x = 2.348712;
        assert!((to_fixed(x) as f64 / SCALE - x).abs() < 1e-5);
        // Product of two fixed-point values carries double scale.
        let a = to_fixed(1.5);
        let b = to_fixed(-2.0);
        assert!(((a * b) as f64 / (SCALE * SCALE) - -3.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_keygen_from_seed() {
        let sk1 = key(96, 42);
        let sk2 = key(96, 42);
        assert_eq!(sk1.public, sk2.public);
    }

    #[test]
    fn larger_modulus_roundtrip() {
        // 512-bit key exercises multi-limb paths end to end.
        let sk = key(512, 18);
        let mut rng = StdRng::seed_from_u64(19);
        let m = BigUint::from_u128(0xdead_beef_cafe_babe_0123_4567_89ab_cdef);
        let c = sk.public.encrypt(&mut rng, &m).unwrap();
        assert_eq!(sk.decrypt(&c).unwrap(), m);
        assert!(c.byte_len() >= 100, "512-bit key -> ~128-byte ciphertexts");
    }
}
