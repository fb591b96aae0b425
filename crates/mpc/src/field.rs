//! The prime field F_p with p = 2^61 - 1 (a Mersenne prime).
//!
//! All SMC arithmetic in PDS² happens in this field: it is large enough to
//! hold fixed-point products of ML features without wrap-around, and the
//! Mersenne structure gives a branch-light reduction.
//!
//! # Example
//!
//! ```
//! use pds2_mpc::field::{decode_fixed, encode_fixed, Fp, MODULUS};
//!
//! // Canonical arithmetic mod 2^61 - 1.
//! let a = Fp::new(10);
//! let b = Fp::from_signed(-3); // negatives wrap to p - |v|
//! assert_eq!(a.add(b).to_signed(), 7);
//! assert_eq!(a.mul(b).to_signed(), -30);
//!
//! // Fermat inversion: a * a^-1 == 1 for every nonzero a.
//! let inv = a.inv().unwrap();
//! assert_eq!(a.mul(inv), Fp::ONE);
//! assert_eq!(Fp::ZERO.inv(), None);
//!
//! // f64 features ride through the field as 2^16 fixed-point.
//! let x = encode_fixed(1.5);
//! assert_eq!(decode_fixed(x), 1.5);
//! assert_eq!(MODULUS, (1u64 << 61) - 1);
//! ```

/// Field modulus `p = 2^61 - 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of F_{2^61 - 1}, kept in canonical range `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Fp(u64);

impl std::fmt::Debug for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl std::fmt::Display for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[allow(clippy::should_implement_trait)] // explicit named field ops by design
impl Fp {
    /// Additive identity.
    pub const ZERO: Fp = Fp(0);
    /// Multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Constructs from a u64, reducing mod p.
    pub fn new(v: u64) -> Fp {
        let mut r = (v & MODULUS) + (v >> 61);
        if r >= MODULUS {
            r -= MODULUS;
        }
        Fp(r)
    }

    /// Raw canonical representative.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Encodes a signed integer (negatives as `p - |v|`).
    ///
    /// Panics if `|v| >= p/2` (would be ambiguous to decode).
    pub fn from_signed(v: i64) -> Fp {
        let mag = v.unsigned_abs();
        assert!(mag < MODULUS / 2, "signed value too large for field");
        if v < 0 {
            Fp(MODULUS - mag)
        } else {
            Fp(mag)
        }
    }

    /// Decodes the wrap-around signed representation.
    pub fn to_signed(self) -> i64 {
        if self.0 < MODULUS / 2 {
            self.0 as i64
        } else {
            -((MODULUS - self.0) as i64)
        }
    }

    /// Field addition.
    pub fn add(self, other: Fp) -> Fp {
        let mut r = self.0 + other.0; // < 2^62, no overflow
        if r >= MODULUS {
            r -= MODULUS;
        }
        Fp(r)
    }

    /// Field subtraction.
    pub fn sub(self, other: Fp) -> Fp {
        if self.0 >= other.0 {
            Fp(self.0 - other.0)
        } else {
            Fp(self.0 + MODULUS - other.0)
        }
    }

    /// Field multiplication with Mersenne reduction.
    pub fn mul(self, other: Fp) -> Fp {
        let prod = self.0 as u128 * other.0 as u128;
        // x mod (2^61 - 1): fold the high bits down twice.
        let lo = (prod & MODULUS as u128) as u64;
        let hi = (prod >> 61) as u64;
        Fp::new(lo.wrapping_add(hi & MODULUS).wrapping_add(hi >> 61))
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse (Fermat), `None` for zero.
    pub fn inv(self) -> Option<Fp> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }

    /// Uniform random field element.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Fp {
        Fp::new(rng.random_range(0..MODULUS))
    }
}

/// Fixed-point scale used when pushing `f64` features through the field.
pub const FIXED_SCALE: f64 = 65_536.0; // 2^16

/// Encodes an `f64` as a fixed-point field element.
pub fn encode_fixed(v: f64) -> Fp {
    Fp::from_signed((v * FIXED_SCALE).round() as i64)
}

/// Decodes a fixed-point field element (single scale).
pub fn decode_fixed(v: Fp) -> f64 {
    v.to_signed() as f64 / FIXED_SCALE
}

/// Decodes a product of two fixed-point values (double scale).
///
/// Multiplying two encoded values squares the scale, so the product must be
/// decoded with this function rather than [`decode_fixed`]:
///
/// ```
/// use pds2_mpc::field::{decode_fixed_product, encode_fixed};
///
/// let prod = encode_fixed(1.5).mul(encode_fixed(-2.0));
/// assert_eq!(decode_fixed_product(prod), -3.0);
/// ```
pub fn decode_fixed_product(v: Fp) -> f64 {
    v.to_signed() as f64 / (FIXED_SCALE * FIXED_SCALE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modulus_is_mersenne_prime() {
        assert_eq!(MODULUS, 2_305_843_009_213_693_951);
    }

    #[test]
    fn new_reduces() {
        assert_eq!(Fp::new(MODULUS).value(), 0);
        assert_eq!(Fp::new(MODULUS + 5).value(), 5);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn add_sub_inverse() {
        let a = Fp::new(123456789);
        let b = Fp::new(MODULUS - 5);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), Fp::ZERO);
        assert_eq!(a.add(Fp::ZERO.sub(a)), Fp::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let a = Fp::random(&mut rng);
            let b = Fp::random(&mut rng);
            let expected = (a.value() as u128 * b.value() as u128 % MODULUS as u128) as u64;
            assert_eq!(a.mul(b).value(), expected);
        }
    }

    #[test]
    fn inv_is_inverse() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a = Fp::random(&mut rng);
            if a == Fp::ZERO {
                continue;
            }
            assert_eq!(a.mul(a.inv().unwrap()), Fp::ONE);
        }
        assert!(Fp::ZERO.inv().is_none());
    }

    #[test]
    fn pow_basics() {
        let a = Fp::new(3);
        assert_eq!(a.pow(0), Fp::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(4).value(), 81);
        // Fermat's little theorem.
        assert_eq!(a.pow(MODULUS - 1), Fp::ONE);
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 999_999_999] {
            assert_eq!(Fp::from_signed(v).to_signed(), v);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn signed_overflow_panics() {
        let _ = Fp::from_signed(i64::MAX);
    }

    #[test]
    fn fixed_point_roundtrip() {
        for v in [-3.5f64, 0.0, 0.0001, 123.456] {
            assert!((decode_fixed(encode_fixed(v)) - v).abs() < 1e-3, "{v}");
        }
        let prod = encode_fixed(2.5).mul(encode_fixed(-4.0));
        assert!((decode_fixed_product(prod) - -10.0).abs() < 1e-3);
    }
}
