//! Arbitrary-precision unsigned integers.
//!
//! `BigUint` stores magnitude as little-endian `u64` limbs with no leading
//! zero limbs (zero is the empty limb vector). The implementation covers
//! exactly what the PDS² cryptographic stack needs: schoolbook
//! multiplication, Knuth algorithm-D division, modular exponentiation and
//! inversion, Miller–Rabin primality testing and random prime generation.
//!
//! The representation invariant (`self.limbs.last() != Some(&0)`) is upheld
//! by every constructor and operation; `debug_assert!`s guard it in tests.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = vec![lo, hi];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Builds a value from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Little-endian limb view.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Parses a big-endian byte string.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if acc != 0 {
            limbs.push(acc);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (zero -> empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let mut skipping = true;
                for &b in &bytes {
                    if skipping && b == 0 {
                        continue;
                    }
                    skipping = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Fills `out` with the big-endian value, left-padded with zeros,
    /// straight from the limbs (no allocation).
    ///
    /// Panics if the value does not fit in `out.len()` bytes.
    pub fn write_bytes_be(&self, out: &mut [u8]) {
        let len = out.len();
        assert!(
            self.bits().div_ceil(8) as usize <= len,
            "value does not fit in {len} bytes"
        );
        out.fill(0);
        for (i, limb) in self.limbs.iter().enumerate() {
            let bytes = limb.to_le_bytes();
            for (j, &b) in bytes.iter().enumerate() {
                if let Some(slot) = len.checked_sub(i * 8 + j + 1) {
                    out[slot] = b;
                }
            }
        }
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut i = 0;
        // Handle odd length by treating the first nibble alone.
        if s.len() % 2 == 1 {
            bytes.push(hex_val(s[0])?);
            i = 1;
        }
        while i < s.len() {
            bytes.push(hex_val(s[i])? << 4 | hex_val(s[i + 1])?);
            i += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Hexadecimal rendering (lowercase, no prefix, "0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{b:x}"));
            } else {
                s.push_str(&format!("{b:02x}"));
            }
        }
        s
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the lowest bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// `self + other`.
    #[allow(clippy::needless_range_loop)] // lockstep limb indexing
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.len() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = a[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`. Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        // Documented contract: the caller guarantees `other <= self`.
        self.checked_sub(other)
            .expect("BigUint::sub underflow: subtrahend larger than minuend")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_val(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self * other`, schoolbook. The widest operands in the workspace
    /// are Paillier's 2048-bit `n²` (32 limbs), far below where a
    /// Karatsuba split would pay for its allocations (~128 limbs).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self * small`.
    pub fn mul_u64(&self, small: u64) -> BigUint {
        if small == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &l in &self.limbs {
            let cur = l as u128 * small as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// `self << bits`.
    pub fn shl(&self, bits: u32) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: u32) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Total-order comparison.
    pub fn cmp_val(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `(self / divisor, self % divisor)`. Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_val(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.divrem_knuth(divisor)
    }

    /// `(self / divisor, self % divisor)` for a single-limb divisor.
    pub fn divrem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// Knuth algorithm D for multi-limb divisors.
    fn divrem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize so the top divisor limb has its high bit set.
        // `divrem` calls this only with a divisor of two or more limbs.
        let shift = divisor.limbs.last().unwrap().leading_zeros();
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_lo = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient limb from the top two/three limbs.
            let num = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut qhat = num / v_hi as u128;
            let mut rhat = num % v_hi as u128;
            while qhat >> 64 != 0 || qhat * v_lo as u128 > (rhat << 64 | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_hi as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - borrow - (p as u64) as i128;
                un[i + j] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - borrow - carry as i128;
            un[j + n] = t as u64;
            if t < 0 {
                // Estimate was one too high: add back.
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = un[i + j].overflowing_add(vn[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    un[i + j] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                un[j + n] = un[j + n].wrapping_add(carry);
            }
            q[j] = qhat as u64;
        }
        un.truncate(n);
        let rem = BigUint::from_limbs(un).shr(shift);
        (BigUint::from_limbs(q), rem)
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.divrem(modulus).1
    }

    /// `(self + other) % modulus`, assuming both operands are `< modulus`.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        let s = self.add(other);
        if s.cmp_val(modulus) == Ordering::Less {
            s
        } else {
            s.sub(modulus)
        }
    }

    /// `(self - other) mod modulus`, assuming both operands are `< modulus`.
    pub fn sub_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        if self.cmp_val(other) == Ordering::Less {
            self.add(modulus).sub(other)
        } else {
            self.sub(other)
        }
    }

    /// `(self * other) % modulus`.
    ///
    /// A one-shot multiply keeps the divrem reduction: Montgomery form
    /// only wins once the per-modulus setup is amortised, so callers on a
    /// hot path with a fixed modulus should hold a
    /// [`crate::montgomery::MontgomeryCtx`] instead (as the Schnorr
    /// verifier does).
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Exponent size (bits) above which [`Self::modpow`] routes odd
    /// moduli through the Montgomery fast path. Below it, the context
    /// setup (two divrems + window table) costs more than the handful of
    /// schoolbook multiplies it replaces.
    const MONTGOMERY_EXP_BITS: u32 = 32;

    /// `self^exponent mod modulus`.
    ///
    /// Odd moduli with non-trivial exponents go through fixed-window
    /// Montgomery exponentiation ([`crate::montgomery`]); even moduli and
    /// tiny exponents use the schoolbook square-and-multiply loop. Both
    /// paths return bit-identical values (pinned by property tests).
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if !modulus.is_even() && exponent.bits() >= Self::MONTGOMERY_EXP_BITS {
            if let Some(ctx) = crate::montgomery::MontgomeryCtx::new(modulus) {
                return ctx.modpow(self, exponent);
            }
        }
        self.modpow_schoolbook(exponent, modulus)
    }

    /// `self^exponent mod modulus` by bit-by-bit square-and-multiply with
    /// divrem reduction — the reference implementation the Montgomery
    /// path is checked against (kept public for property tests).
    pub fn modpow_schoolbook(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut base = self.rem(modulus);
        let mut result = BigUint::one();
        let nbits = exponent.bits();
        for i in 0..nbits {
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            if i + 1 < nbits {
                base = base.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free classic Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self^-1 mod modulus`, or `None` if not coprime.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`,
        // with sign handled explicitly.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let inv = if t0.1 {
            modulus.sub(&t0.0.rem(modulus))
        } else {
            t0.0.rem(modulus)
        };
        Some(inv.rem(modulus))
    }

    /// Uniform random value in `[0, bound)`. Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate.cmp_val(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Uniform random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
        let nlimbs = bits.div_ceil(64) as usize;
        let mut limbs = Vec::with_capacity(nlimbs);
        for _ in 0..nlimbs {
            limbs.push(rng.random::<u64>());
        }
        let extra = (nlimbs as u32) * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top >>= extra;
            }
        }
        BigUint::from_limbs(limbs)
    }

    /// Miller–Rabin probabilistic primality test.
    ///
    /// Uses the deterministic witness set {2,3,...,37} (sound below
    /// 3.3·10^24) plus `extra_rounds` random witnesses for larger inputs.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, extra_rounds: u32) -> bool {
        const SMALL_PRIMES: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
        if self.is_zero() || self.is_one() {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            match self.cmp_val(&pb) {
                Ordering::Equal => return true,
                Ordering::Less => return false,
                Ordering::Greater => {}
            }
            if self.divrem_u64(p).1 == 0 {
                return false;
            }
        }
        // Write self - 1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0u32;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let witness_ok = |a: &BigUint| -> bool {
            let mut x = a.modpow(&d, self);
            if x.is_one() || x == n_minus_1 {
                return true;
            }
            for _ in 1..s {
                x = x.mul_mod(&x, self);
                if x == n_minus_1 {
                    return true;
                }
            }
            false
        };
        for &p in &SMALL_PRIMES[..12] {
            if !witness_ok(&BigUint::from_u64(p)) {
                return false;
            }
        }
        if self.bits() <= 81 {
            // Deterministic witness set is conclusive for values this small.
            return true;
        }
        let two = BigUint::from_u64(2);
        let hi = self.sub(&two);
        for _ in 0..extra_rounds {
            let a = BigUint::random_below(rng, &hi).add(&two);
            if !witness_ok(&a) {
                return false;
            }
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
        assert!(bits >= 2, "prime must have at least 2 bits");
        loop {
            let mut candidate = Self::random_bits(rng, bits);
            // Force top and bottom bits: exact bit length, odd.
            candidate = candidate.set_bit(bits - 1).set_bit(0);
            if candidate.is_probable_prime(rng, 16) {
                return candidate;
            }
        }
    }

    /// Returns a copy with bit `i` set.
    pub fn set_bit(&self, i: u32) -> BigUint {
        let limb = (i / 64) as usize;
        let mut limbs = self.limbs.clone();
        if limbs.len() <= limb {
            limbs.resize(limb + 1, 0);
        }
        limbs[limb] |= 1u64 << (i % 64);
        BigUint::from_limbs(limbs)
    }
}

/// Signed subtraction helper for the extended Euclid loop:
/// computes `a - b` on (magnitude, is_negative) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => match a.0.cmp_val(&b.0) {
            Ordering::Less => (b.0.sub(&a.0), true),
            _ => (a.0.sub(&b.0), false),
        },
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // (-a) - (-b) = b - a
        (true, true) => match b.0.cmp_val(&a.0) {
            Ordering::Less => (a.0.sub(&b.0), true),
            _ => (b.0.sub(&a.0), false),
        },
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal rendering by repeated division; fine for display purposes.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut v = self.clone();
        while !v.is_zero() {
            let (q, r) = v.divrem_u64(10);
            digits.push(char::from(b'0' + r as u8));
            v = q;
        }
        let decimal: String = digits.into_iter().rev().collect();
        f.write_str(&decimal)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn add_sub_small() {
        let a = b(0xffff_ffff_ffff_ffff);
        let c = a.add(&BigUint::one());
        assert_eq!(c.to_u128(), Some(1u128 << 64));
        assert_eq!(c.sub(&BigUint::one()), a);
    }

    #[test]
    fn checked_sub_underflow() {
        assert!(b(3).checked_sub(&b(5)).is_none());
        assert_eq!(b(5).checked_sub(&b(3)), Some(b(2)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = b(1).sub(&b(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = b(0x1234_5678_9abc_def0);
        let c = b(0xfedc_ba98);
        assert_eq!(
            a.mul(&c).to_u128(),
            Some(0x1234_5678_9abc_def0u128 * 0xfedc_ba98u128)
        );
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = b(u128::MAX);
        assert_eq!(a.mul_u64(12345), a.mul(&b(12345)));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = b(0xdead_beef_cafe_babe);
        assert_eq!(a.shl(77).shr(77), a);
        assert_eq!(a.shl(64).limbs(), &[0, 0xdead_beef_cafe_babe]);
        assert_eq!(a.shr(200), BigUint::zero());
    }

    #[test]
    fn divrem_small_divisor() {
        let a = b(1_000_000_007u128 * 999 + 123);
        let (q, r) = a.divrem(&b(1_000_000_007));
        assert_eq!(q, b(999));
        assert_eq!(r, b(123));
    }

    #[test]
    fn divrem_multi_limb() {
        // 192-bit / 128-bit exercise of Knuth D.
        let a = b(u128::MAX).mul(&b(0x1_0000_0001)).add(&b(42));
        let d = b(u128::MAX);
        let (q, r) = a.divrem(&d);
        assert_eq!(q, b(0x1_0000_0001));
        assert_eq!(r, b(42));
    }

    #[test]
    fn divrem_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a = BigUint::random_bits(&mut rng, 256);
            let d = BigUint::random_bits(&mut rng, 130).add(&BigUint::one());
            let (q, r) = a.divrem(&d);
            assert!(r.cmp_val(&d) == Ordering::Less);
            assert_eq!(q.mul(&d).add(&r), a);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).divrem(&BigUint::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(a.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 7]), b(7));
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        // The fixed-width form pads on the left and refuses a value that
        // does not fit.
        let mut four = [0xff; 4];
        b(7).write_bytes_be(&mut four);
        assert_eq!(four, [0, 0, 0, 7]);
        let too_small = std::panic::catch_unwind(|| b(0x1_0000).write_bytes_be(&mut [0; 2]));
        assert!(too_small.is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe1234").unwrap();
        assert_eq!(a.to_hex(), "deadbeefcafebabe1234");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_hex("f").unwrap(), b(15));
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn display_decimal() {
        assert_eq!(b(0).to_string(), "0");
        assert_eq!(b(1234567890123456789).to_string(), "1234567890123456789");
    }

    #[test]
    fn modpow_small() {
        // 3^7 mod 100 = 2187 mod 100 = 87
        assert_eq!(b(3).modpow(&b(7), &b(100)), b(87));
        // Fermat: a^(p-1) = 1 mod p
        let p = b(1_000_000_007);
        assert_eq!(
            b(123456).modpow(&p.sub(&BigUint::one()), &p),
            BigUint::one()
        );
        assert_eq!(b(5).modpow(&b(0), &b(7)), BigUint::one());
        assert_eq!(b(5).modpow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modinv_basic() {
        let p = b(1_000_000_007);
        let a = b(987654321);
        let inv = a.modinv(&p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), BigUint::one());
        // Non-coprime has no inverse.
        assert!(b(6).modinv(&b(9)).is_none());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(b(48).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(17).gcd(&b(13)), b(1));
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 97, 7919, 1_000_000_007] {
            assert!(BigUint::from_u64(p).is_probable_prime(&mut rng, 8), "{p}");
        }
        for c in [1u64, 4, 100, 7917, 1_000_000_007 * 3] {
            assert!(!BigUint::from_u64(c).is_probable_prime(&mut rng, 8), "{c}");
        }
        // Carmichael number 561 = 3 * 11 * 17 must be rejected.
        assert!(!b(561).is_probable_prime(&mut rng, 8));
    }

    #[test]
    fn random_prime_has_exact_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = BigUint::random_prime(&mut rng, 96);
        assert_eq!(p.bits(), 96);
        assert!(!p.is_even());
        assert!(p.is_probable_prime(&mut rng, 16));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = b(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_val(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn bit_access() {
        let a = b(0b1010_0001);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(5));
        assert!(a.bit(7));
        assert!(!a.bit(1000));
        assert_eq!(a.set_bit(1), b(0b1010_0011));
        assert_eq!(
            BigUint::zero().set_bit(64),
            BigUint::from_u128(1 << 64).shl(0)
        );
    }

    #[test]
    fn mod_arith_helpers() {
        let m = b(97);
        assert_eq!(b(90).add_mod(&b(10), &m), b(3));
        assert_eq!(b(5).sub_mod(&b(10), &m), b(92));
        assert_eq!(b(50).mul_mod(&b(3), &m), b(150 % 97));
    }
}
