//! Montgomery-form modular arithmetic: the signature-verification fast
//! path.
//!
//! Schoolbook `mul_mod` pays a full Knuth division per multiplication.
//! [`MontgomeryCtx`] precomputes, once per (odd) modulus `n`, everything
//! needed to replace that division with a multiply-and-reduce:
//! `-n^{-1} mod 2^64` and `R^2 mod n` for `R = 2^{64k}` where `k` is the
//! limb count of `n`. Every subsequent modular multiplication is then one
//! `O(k^2)` pass with no division and no allocation.
//!
//! `Kernel` holds everything above the multiplier once, generic over how a
//! residue is stored (`Limbs`); each storage brings its own
//! multiplication and squaring. [`MontgomeryCtx::new`] looks at the
//! modulus and picks the instantiation:
//!
//! * **compile-time width** — a modulus of the shape `top·2^256 − c`
//!   (five limbs, the middle three all ones: the 260-bit Schnorr group
//!   prime `p = 14·2^256 − 531`, DESIGN.md §5d, and every candidate of
//!   its derivation) runs on `[u64; 5]` residues. It forms the 10-limb
//!   product or square, then reduces by the shape: a step's `m·n` is
//!   `m·top·2^256 − m·c`, and the low limb of `m·c` is the limb being
//!   cleared, so a step is three limb products where CIOS takes six
//!   (`mul` 40 limb products in all against 55, `sqr` 30 against 45).
//!   The limb count is a constant, so the limb loops unroll and stay in
//!   registers, and residues live on the stack;
//! * **run-time width** — every other odd modulus (Paillier `n²`, MPC
//!   fields, Miller–Rabin candidates of other sizes) runs CIOS (coarsely
//!   integrated operand scanning) on `Vec<u64>` residues, allocated before
//!   an exponentiation's loop and reused, and squares up to eight limbs
//!   with the off-diagonal products once and doubled (about 30 % cheaper).
//!
//! On top of the multiplier sit three exponentiation loops:
//!
//! * [`MontgomeryCtx::modpow`] — fixed windows of 4 bits over a table of
//!   `base^1 .. base^15`: about `bits` squarings plus one multiplication
//!   per 4 bits. Paillier, the MPC fields and Miller–Rabin run on it;
//! * **Lim–Lee combs** (`CombShape`, C. H. Lim and P. J. Lee, "More
//!   flexible exponentiation with precomputation", CRYPTO '94), behind
//!   the Schnorr group's `g^a` and `g^a · y^b`. A comb splits a 256-bit
//!   exponent into `h` rows of `v·b` bits and each row into `v` blocks of
//!   `b` bits; sub-table `t`, entry `I` (`1 ≤ I < 2^h`) holds
//!   `Π_{j∈I} base^{2^{(j·v+t)·b}}`. A walk runs `b` steps, most
//!   significant first: one squaring, then per sub-table one
//!   multiplication by the entry its bit column indexes. So a power costs
//!   `b − 1` squarings and about `v·b` multiplications, and terms of a
//!   product with the same `b` share the squarings: the generator's comb
//!   (8 rows, 2 sub-tables, 510 residues, 20 KB, built once) and a key's
//!   (4 rows, 4 sub-tables, 60 residues, 2.4 KB) make `g^a · y^b` 15
//!   squarings and about 92 multiplications. A key's comb costs 240
//!   squarings and 44 multiplications to build;
//! * [`MontgomeryCtx::multi_pow`] — Pippenger bucket multi-exponentiation
//!   `Π baseᵢ^{expᵢ} mod n`: no per-base table at all, one squaring chain
//!   for the whole product and, per `c`-bit window, one multiplication
//!   per term into one of `2^c − 1` buckets plus a fold of the buckets.
//!   The shared part is paid once, so the cost per term falls as terms
//!   are added (about 77 multiplications per signature at 256 signatures
//!   against about 107 for a single check under a known key), which is
//!   what a batched signature check is made of. [`bucket_window`] picks
//!   `c` from the exponents' lengths.
//!
//! [`MontgomeryCtx::eq_pow_u64`] compares two residues up to a small power
//! (`a^e = b^e`) by square-and-multiply inside the kernel: the cofactor
//! step of both signature checks, twelve multiplications at `e = 28`.
//!
//! A table is one contiguous block of residues. Window digits are read
//! straight from the exponent's limbs (a window of 3, 5 or 6 bits may
//! straddle two of them); a comb's bit columns by shifts over its rows,
//! each of which lies in one limb. At compile-time width nothing inside
//! an exponentiation loop touches the heap; at run-time width a residue
//! is allocated when a running product takes its first factor.
//!
//! Results are plain [`BigUint`] values, bit-identical to the schoolbook
//! path — the representation changes inside a call, never the outcome —
//! so the repo-wide determinism invariant (identical results on every
//! rerun) is untouched. Property tests in
//! `crates/crypto/tests/proptests.rs` pin the equivalence of both
//! instantiations and the schoolbook reference over random operands,
//! random shaped moduli and the edge cases (0, 1, n−1, operand = n, the
//! final-subtraction carry, products that run the shaped reduction's
//! borrow and carry chains their whole length).

use crate::bigint::BigUint;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Window width of the table behind [`MontgomeryCtx::modpow`].
const WINDOW: u32 = 4;

/// Widest digit any loop reads: [`MontgomeryCtx::multi_pow`] holds 63
/// buckets of one residue (2.5 KB at five limbs) at most, whatever the
/// batch size.
const MAX_WINDOW: u32 = 6;

/// Bits of exponent every comb covers: a comb exponent is four limbs.
pub(crate) const COMB_BITS: u32 = 256;

/// Limbs of a comb exponent.
pub(crate) const COMB_LIMBS: usize = (COMB_BITS / 64) as usize;

/// Most rows a comb has: a bit column indexes at most 255 entries.
const MAX_COMB_ROWS: usize = 8;

/// Limb count of the moduli that get the compile-time-width kernel: those
/// of [`is_shaped`]'s shape, the 260-bit Schnorr group prime among them.
const FIXED_LIMBS: usize = 5;

/// Widest run-time-width modulus, in limbs, whose squarings take the
/// squaring body: its 2k-limb square lives in a stack array of this many
/// limbs twice over.
const SQR_LIMBS: usize = 8;

/// Whether a modulus' limbs are `top·2^256 − c` with `2 ≤ top ≤ 2^64` and
/// `0 < c < 2^64`: five limbs, the middle three all ones. Every candidate
/// `k·q + 1` of the Schnorr group's derivation has that shape, p itself
/// with `top = 14` and `c = 531`.
fn is_shaped(n: &[u64]) -> bool {
    matches!(n, [_, u64::MAX, u64::MAX, u64::MAX, top] if *top != 0)
}

/// How residues of one width are stored, and the Montgomery
/// multiplication and squaring that width runs.
///
/// `[u64; 5]` fixes the limb count at compile time and reduces by the
/// modulus' shape; `Vec<u64>` carries the limb count at run time and
/// reduces by CIOS. Everything else in [`Kernel`] is written once against
/// this trait.
trait Limbs: Sized + Clone + AsRef<[u64]> + AsMut<[u64]> {
    /// A zero residue of `k` limbs.
    fn zeroed(k: usize) -> Self;

    /// `out = a · b · R^{-1} mod n` for k-limb `a, b < n`.
    fn mul(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64], b: &[u64]);

    /// `out = a² · R^{-1} mod n` for a k-limb `a < n`: what
    /// `mul(out, a, a)` gives, for fewer limb products.
    fn sqr(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64]);
}

/// The compile-time width, for a modulus of [`is_shaped`]'s shape.
/// `n = top·2^256 − c` and `n0inv = -n^{-1} = c^{-1} mod 2^64`, so for
/// `m = tᵢ·n0inv` the low limb of `m·c` is `tᵢ` itself and
/// `m·n = m·top·2^256 − m·c`: adding `m·n` at limb `i` clears limb `i`
/// with no borrow, takes `hi64(m·c)` off limb `i + 1` and adds `m·top` at
/// limbs `i + 4` and `i + 5`. A reduction step is three limb products
/// where CIOS takes six, and the limb count is a constant, so every loop
/// unrolls and the residues stay in registers.
impl Limbs for [u64; FIXED_LIMBS] {
    fn zeroed(k: usize) -> Self {
        debug_assert_eq!(k, FIXED_LIMBS);
        [0; FIXED_LIMBS]
    }

    /// The 10-limb product, then [`Kernel::reduce_shaped`].
    #[inline(always)]
    fn mul(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64], b: &[u64]) {
        // One check up front lets every index below go unchecked.
        assert!(a.len() == FIXED_LIMBS && b.len() == FIXED_LIMBS);
        let mut t = [0u64; 2 * FIXED_LIMBS];
        for i in 0..FIXED_LIMBS {
            let mut carry = 0u64;
            for j in 0..FIXED_LIMBS {
                let cur = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
                t[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            t[i + FIXED_LIMBS] = carry;
        }
        kernel.reduce_shaped(out, t);
    }

    /// The 10-limb square, then [`Kernel::reduce_shaped`].
    #[inline(always)]
    fn sqr(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64]) {
        assert!(a.len() == FIXED_LIMBS);
        let mut t = [0u64; 2 * FIXED_LIMBS];
        square(&mut t, a);
        kernel.reduce_shaped(out, t);
    }
}

/// The run-time width, for every other odd modulus: CIOS (coarsely
/// integrated operand scanning) for a product, and for a square up to
/// [`SQR_LIMBS`] limbs the square first, then the same reduction limb by
/// limb (separated operand scanning).
impl Limbs for Vec<u64> {
    fn zeroed(k: usize) -> Self {
        vec![0; k]
    }

    fn mul(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = kernel.n.as_slice();
        let k = n.len();
        // One check up front lets every index below go unchecked.
        assert!(out.len() == k && a.len() == k && b.len() == k);
        // The running state is k + 1 limbs: `out` plus `hi`.
        out.fill(0);
        let mut hi = 0u64;
        for &ai in a {
            // t += ai * b
            let mut carry = 0u64;
            for j in 0..k {
                let cur = out[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
                out[j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let top = hi as u128 + carry as u128;
            // m = t[0] * n0inv mod 2^64; t = (t + m * n) >> 64.
            let m = out[0].wrapping_mul(kernel.n0inv);
            let mut carry = ((out[0] as u128 + m as u128 * n[0] as u128) >> 64) as u64;
            for j in 1..k {
                let cur = out[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
                out[j - 1] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let top = top + carry as u128;
            out[k - 1] = top as u64;
            hi = (top >> 64) as u64; // never exceeds 1
        }
        subtract_n_unless_below(out, hi, n);
    }

    fn sqr(kernel: &Kernel<Self>, out: &mut [u64], a: &[u64]) {
        let n = kernel.n.as_slice();
        let k = n.len();
        if k > SQR_LIMBS {
            return Self::mul(kernel, out, a, a);
        }
        // One check up front lets every index below go unchecked.
        assert!(out.len() == k && a.len() == k);
        let mut t = [0u64; 2 * SQR_LIMBS];
        square(&mut t[..2 * k], a);
        // t = (t + m·n) / R, one limb of m at a time; `hi` is the carry
        // out of limb i + k, at most 1.
        let mut hi = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(kernel.n0inv);
            let mut carry = 0u64;
            for j in 0..k {
                let cur = t[i + j] as u128 + m as u128 * n[j] as u128 + carry as u128;
                t[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = t[i + k] as u128 + carry as u128 + hi as u128;
            t[i + k] = cur as u64;
            hi = (cur >> 64) as u64;
        }
        out.copy_from_slice(&t[k..2 * k]);
        subtract_n_unless_below(out, hi, n);
    }
}

/// `t = a²` for a k-limb `a` into a zeroed `t` of `2k` limbs: each
/// product `aᵢ·aⱼ` with `i < j` once, doubled, then the diagonal, so
/// k(k+1)/2 limb products where a multiplication takes k².
#[inline]
fn square(t: &mut [u64], a: &[u64]) {
    let k = a.len();
    assert!(t.len() == 2 * k);
    for i in 0..k {
        let mut carry = 0u64;
        for j in i + 1..k {
            let cur = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
            t[i + j] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        t[i + k] = carry;
    }
    // Doubling the off-diagonal half loses no bit: it is below a²/2.
    let mut shifted_out = 0u64;
    for limb in t.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | shifted_out;
        shifted_out = next;
    }
    let mut carry = 0u64;
    for i in 0..k {
        let square = a[i] as u128 * a[i] as u128;
        let lo = t[2 * i] as u128 + (square as u64) as u128 + carry as u128;
        t[2 * i] = lo as u64;
        let hi = t[2 * i + 1] as u128 + (square >> 64) + (lo >> 64);
        t[2 * i + 1] = hi as u64;
        carry = (hi >> 64) as u64; // zero after the last limb: a² < R²
    }
}

/// The last step of every reduction: `hi·R + out`, below `2n`, brought
/// below `n` by one conditional subtraction whose last borrow cancels
/// `hi`.
#[inline]
fn subtract_n_unless_below(out: &mut [u64], hi: u64, n: &[u64]) {
    if hi != 0 || cmp_limbs(out, n) != Ordering::Less {
        let mut borrow = false;
        for (limb, &nj) in out.iter_mut().zip(n) {
            let (d, b1) = limb.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *limb = d;
            borrow = b1 | b2;
        }
    }
}

/// The shape of a Lim–Lee comb over a [`COMB_BITS`]-bit exponent: `rows`
/// (h) rows of `tables · steps` (v·b) bits, each row split into `tables`
/// blocks of `steps` bits. Sub-table `t`, entry `I` (`1 ≤ I < 2^h`) holds
/// `Π_{j∈I} base^{2^{(j·v+t)·b}}`, so at step `i` the bits `i` of block
/// `t` of every row, one per row, index the one entry that sub-table
/// contributes. A row is at most one limb wide and a limb holds whole
/// rows, so each row is read out of one limb; a block is at least `h`
/// bits wide, so a step's indices of all sub-tables fit in one word.
///
/// The shapes in use: the generator's `h = 8, v = 2, b = 16` (510
/// residues) and a verifying key's `h = 4, v = 4, b = 16` (60 residues).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CombShape {
    rows: u32,
    tables: u32,
    steps: u32,
}

impl CombShape {
    /// The shape of `H` rows, `V` sub-tables and `B` steps, checked when
    /// the crate compiles: an invalid one is a build error, so no value
    /// of this type can make a walk index out of range.
    pub(crate) const fn new<const H: u32, const V: u32, const B: u32>() -> CombShape {
        const { assert!(CombShape::checked(H, V, B).is_some(), "invalid comb shape") };
        CombShape {
            rows: H,
            tables: V,
            steps: B,
        }
    }

    /// A shape, or `None` unless `1 ≤ rows ≤ 8`, `rows ≤ steps`, `tables`
    /// is non-zero, the row width `tables · steps` divides 64 and the
    /// rows cover exactly [`COMB_BITS`] bits.
    const fn checked(rows: u32, tables: u32, steps: u32) -> Option<CombShape> {
        if rows == 0 || rows > MAX_COMB_ROWS as u32 || rows > steps || tables == 0 {
            return None;
        }
        let Some(width) = tables.checked_mul(steps) else {
            return None;
        };
        if width > 64 || !64u32.is_multiple_of(width) || rows * width != COMB_BITS {
            return None;
        }
        Some(CombShape {
            rows,
            tables,
            steps,
        })
    }

    /// Residues per sub-table, one per non-empty set of rows; also the
    /// mask of an entry index.
    fn entries(self) -> usize {
        (1 << self.rows) - 1
    }

    /// The exponent's rows, row `j` in the low bits of word `j`: every
    /// limb holds `64 / width` whole rows, so a row is one shift and one
    /// mask. The words past the last row stay zero.
    fn rows_of(self, exp: &[u64; COMB_LIMBS]) -> [u64; MAX_COMB_ROWS] {
        let width = self.tables * self.steps;
        let mask = u64::MAX >> (64 - width);
        let pieces = exp
            .iter()
            .flat_map(|&limb| (0..64 / width).map(move |r| (limb >> (r * width)) & mask));
        let mut rows = [0u64; MAX_COMB_ROWS];
        for (row, piece) in rows.iter_mut().zip(pieces) {
            *row = piece;
        }
        rows
    }

    /// Step `step`'s entry indices of every sub-table at once: bit `j` of
    /// sub-table `t`'s index, at bit `t·b + j`, is bit `step` of block `t`
    /// of row `j`. One shift, mask and shift per row.
    #[inline]
    fn columns(self, rows: &[u64; MAX_COMB_ROWS], step: u32) -> u64 {
        let starts = (0..self.tables).fold(0u64, |m, t| m | 1 << (t * self.steps));
        let rows = rows.iter().take(self.rows as usize);
        rows.enumerate().fold(0, |columns, (j, row)| {
            columns | ((row >> step) & starts) << j
        })
    }

    /// Sub-table `t`'s entry index out of a step's [`Self::columns`].
    #[inline]
    fn index(self, columns: u64, t: u32) -> usize {
        (columns >> (t * self.steps)) as usize & self.entries()
    }
}

/// A comb (see [`CombShape`]) in Montgomery form: `tables · (2^h − 1)`
/// residues in one block, sub-table after sub-table. Only the context
/// that built it may walk it; outside an exponentiation call, combs are
/// kept only by the crate's one long-lived context, the Schnorr group's.
#[derive(Debug)]
pub(crate) struct Comb {
    shape: CombShape,
    limbs: Box<[u64]>,
}

impl Comb {
    /// Entry `index ≥ 1` of sub-table `t`, as `k` limbs.
    #[inline]
    fn entry(&self, t: u32, index: usize, k: usize) -> &[u64] {
        let at = (t as usize * self.shape.entries() + index - 1) * k;
        &self.limbs[at..at + k]
    }

    /// Heap bytes held: what a cache of combs pays per entry.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.limbs)
    }
}

/// Per-modulus Montgomery state at one residue width, and every
/// algorithm that runs on it. `R = 2^{64·k}` with `k` the limb count of
/// the modulus.
#[derive(Clone, Debug)]
struct Kernel<L> {
    /// Modulus limbs (little-endian, top limb non-zero).
    n: L,
    /// `-n^{-1} mod 2^64` (exists because `n` is odd).
    n0inv: u64,
    /// `R mod n` — the Montgomery representation of 1.
    r1: L,
    /// `R^2 mod n` — converts a value into Montgomery form in one mul.
    r2: L,
}

impl<L: Limbs> Kernel<L> {
    /// Precomputes the state for an odd `modulus > 1`.
    fn new(modulus: &BigUint) -> Self {
        let limbs = modulus.limbs();
        let k = limbs.len();
        // n0inv = -(n[0]^-1) mod 2^64 via Newton iteration (doubles the
        // number of correct low bits each round; 6 rounds cover 64 bits).
        let mut inv = limbs[0];
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(limbs[0].wrapping_mul(inv), 1);
        // R mod n and R^2 mod n: the only divisions this kernel ever does.
        let r1 = BigUint::one().shl(64 * k as u32).rem(modulus);
        let r2 = BigUint::one().shl(128 * k as u32).rem(modulus);
        Kernel {
            n: padded(limbs, k),
            n0inv: inv.wrapping_neg(),
            r1: padded(r1.limbs(), k),
            r2: padded(r2.limbs(), k),
        }
    }

    /// Limb count of the modulus: a constant at `L = [u64; K]`.
    #[inline]
    fn k(&self) -> usize {
        self.n.as_ref().len()
    }

    /// Montgomery multiplication `out = a · b · R^{-1} mod n` for k-limb
    /// `a, b < n`, by the width's own reduction (see [`Limbs`]).
    #[inline]
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        L::mul(self, out, a, b)
    }

    /// Montgomery squaring `out = a² · R^{-1} mod n` for `a < n`, equal to
    /// `mul(out, a, a)`. Squarings are most of an exponentiation's chain
    /// and all of a key's row build.
    #[inline]
    fn sqr(&self, out: &mut [u64], a: &[u64]) {
        L::sqr(self, out, a)
    }

    /// `x · y^steps mod n` by `steps` multiplications in a row (`y` in
    /// Montgomery form, so each one multiplies by `y`), or `x^(2^steps)`
    /// by `steps` squarings in a row when `y` is `None`: each step waits
    /// on the one before, which is what a walk's chain does.
    fn chain(&self, x: &BigUint, y: Option<&BigUint>, steps: usize) -> BigUint {
        let (mut acc, mut tmp) = (self.to_mont(x), L::zeroed(self.k()));
        let y = y.map(|y| self.to_mont(y));
        for _ in 0..steps {
            match &y {
                Some(y) => self.mul(tmp.as_mut(), acc.as_ref(), y.as_ref()),
                None => self.sqr(tmp.as_mut(), acc.as_ref()),
            }
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.demont(acc.as_ref())
    }

    /// Converts `x < n` into Montgomery form.
    fn to_mont(&self, x: &BigUint) -> L {
        let mut out = L::zeroed(self.k());
        let plain: L = padded(x.limbs(), self.k());
        self.mul(out.as_mut(), plain.as_ref(), self.r2.as_ref());
        out
    }

    /// Converts a Montgomery-form value back to a plain `BigUint`.
    fn demont(&self, a: &[u64]) -> BigUint {
        let mut one = L::zeroed(self.k());
        one.as_mut()[0] = 1;
        let mut out = L::zeroed(self.k());
        self.mul(out.as_mut(), a, one.as_ref());
        BigUint::from_limbs(out.as_ref().to_vec())
    }

    /// `(a * b) mod n` for `a, b < n`.
    fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut out = L::zeroed(self.k());
        self.mul(
            out.as_mut(),
            self.to_mont(a).as_ref(),
            self.to_mont(b).as_ref(),
        );
        self.demont(out.as_ref())
    }

    /// `slot ← slot · by`, where `None` stands for Mont(1): the first
    /// factor is copied in, not multiplied.
    #[inline]
    fn mul_into(&self, slot: &mut Option<L>, tmp: &mut L, by: &[u64]) {
        match slot {
            Some(x) => {
                self.mul(tmp.as_mut(), x.as_ref(), by);
                std::mem::swap(x, tmp);
            }
            None => *slot = Some(padded(by, self.k())),
        }
    }

    /// `x ← x²`, `times` times in a row.
    #[inline]
    fn square_times(&self, x: &mut L, tmp: &mut L, times: u32) {
        for _ in 0..times {
            self.sqr(tmp.as_mut(), x.as_ref());
            std::mem::swap(x, tmp);
        }
    }

    /// `base^exp mod n` for `base < n` by fixed windows of [`WINDOW`]
    /// bits, most significant first: a table of `base^1 .. base^15` (14
    /// multiplications), then per window [`WINDOW`] squarings and one
    /// multiplication by the window's entry unless the window is zero.
    fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.k();
        let entries = (1 << WINDOW) - 1;
        let mut table = vec![0u64; entries * k];
        table[..k].copy_from_slice(self.to_mont(base).as_ref());
        for d in 1..entries {
            let (done, next) = table.split_at_mut(d * k);
            self.mul(&mut next[..k], &done[(d - 1) * k..], &done[..k]);
        }
        let mut tmp = L::zeroed(k);
        let mut acc: Option<L> = None;
        for w in (0..exp.bits().div_ceil(WINDOW)).rev() {
            if let Some(x) = acc.as_mut() {
                self.square_times(x, &mut tmp, WINDOW);
            }
            let d = bits_at(exp.limbs(), w * WINDOW, WINDOW);
            if d != 0 {
                self.mul_into(&mut acc, &mut tmp, &table[(d - 1) * k..d * k]);
            }
        }
        self.demont(acc.as_ref().map_or(self.r1.as_ref(), AsRef::as_ref))
    }

    /// The comb of `shape` for `base < n` (see [`CombShape`]). The powers
    /// `base^{2^{b·m}}`, `m < h·v`, are one chain, each `b` squarings
    /// after the one before, and power `m = j·v + t` is entry `2^j` of
    /// sub-table `t`; every other entry is the product of its lowest
    /// row's entry and the entry of the rest. A key's comb is 240
    /// squarings and 44 multiplications.
    fn comb(&self, base: &BigUint, shape: CombShape) -> Comb {
        let k = self.k();
        let entries = shape.entries();
        let mut limbs = vec![0u64; shape.tables as usize * entries * k];
        let (mut power, mut tmp) = (self.to_mont(base), L::zeroed(k));
        for j in 0..shape.rows as usize {
            for t in 0..shape.tables as usize {
                if j + t > 0 {
                    self.square_times(&mut power, &mut tmp, shape.steps);
                }
                let at = (t * entries + (1 << j) - 1) * k;
                limbs[at..at + k].copy_from_slice(power.as_ref());
            }
        }
        for table in limbs.chunks_exact_mut(entries * k) {
            for index in 1..=entries {
                let low = index & index.wrapping_neg();
                if low == index {
                    continue;
                }
                let (done, next) = table.split_at_mut((index - 1) * k);
                let entry = |i: usize| &done[(i - 1) * k..i * k];
                self.mul(&mut next[..k], entry(index - low), entry(low));
            }
        }
        Comb {
            shape,
            limbs: limbs.into_boxed_slice(),
        }
    }

    /// `Π combᵢ^{expᵢ} mod n`: the one walk over combs. All terms share
    /// one squaring chain: step `i` runs from the largest step count
    /// down, squares the product (except at the first factor) and
    /// multiplies in, for every term with more than `i` steps and every
    /// sub-table of it, the entry its bit column `i` indexes.
    fn pow_combs<const N: usize>(&self, terms: [(&Comb, &[u64; COMB_LIMBS]); N]) -> BigUint {
        let k = self.k();
        debug_assert!(
            terms.iter().all(|(comb, _)| comb.limbs.len() % k == 0),
            "comb built for another modulus"
        );
        let rows = terms.map(|(comb, exp)| comb.shape.rows_of(exp));
        let steps = terms.iter().map(|(comb, _)| comb.shape.steps);
        let mut tmp = L::zeroed(k);
        let mut acc: Option<L> = None;
        for i in (0..steps.max().unwrap_or(0)).rev() {
            if let Some(x) = acc.as_mut() {
                self.square_times(x, &mut tmp, 1);
            }
            for ((comb, _), rows) in terms.iter().zip(&rows) {
                let shape = comb.shape;
                if i >= shape.steps {
                    continue;
                }
                let columns = shape.columns(rows, i);
                for t in 0..shape.tables {
                    let index = shape.index(columns, t);
                    if index != 0 {
                        self.mul_into(&mut acc, &mut tmp, comb.entry(t, index, k));
                    }
                }
            }
        }
        self.demont(acc.as_ref().map_or(self.r1.as_ref(), AsRef::as_ref))
    }

    /// `x ← x^e` in Montgomery form for a small `e ≥ 1`, by left-to-right
    /// square-and-multiply with no table: for the Schnorr cofactor
    /// 28 = 0b11100 that is the six-multiplication chain
    /// `x³ = x²·x`, `x⁷ = (x³)²·x`, `x²⁸ = (x⁷)⁴`.
    fn pow_small(&self, x: &mut L, e: u64) {
        debug_assert!(e >= 1);
        let base = x.clone();
        let mut tmp = L::zeroed(self.k());
        for bit in (0..e.ilog2()).rev() {
            self.square_times(x, &mut tmp, 1);
            if (e >> bit) & 1 == 1 {
                self.mul(tmp.as_mut(), x.as_ref(), base.as_ref());
                std::mem::swap(x, &mut tmp);
            }
        }
    }

    /// Whether `a^e ≡ b^e (mod n)` for `a, b < n` and a small `e ≥ 1`:
    /// both sides are raised in Montgomery form and compared there (the
    /// form is canonical, so equal residues have equal limbs).
    fn eq_pow_small(&self, a: &BigUint, b: &BigUint, e: u64) -> bool {
        let (mut a, mut b) = (self.to_mont(a), self.to_mont(b));
        self.pow_small(&mut a, e);
        self.pow_small(&mut b, e);
        a.as_ref() == b.as_ref()
    }

    /// Pippenger bucket multi-exponentiation `Π baseᵢ^{expᵢ} mod n` over
    /// `c`-bit windows, most significant first. Per window: every term
    /// with a non-zero digit `d` is multiplied into bucket `d`, the
    /// buckets are folded as `Π_d bucket_d^d` by a running product (two
    /// multiplications per bucket, none for the empty ones above the
    /// highest occupied), and the accumulator is squared `c` times
    /// before the fold is multiplied in. Storage is the terms in
    /// Montgomery form plus `2^c − 1` buckets of one residue each.
    fn multi_pow(&self, terms: &[(Cow<'_, BigUint>, &BigUint)], c: u32) -> BigUint {
        let k = self.k();
        let bases: Vec<L> = terms.iter().map(|(base, _)| self.to_mont(base)).collect();
        let max_bits = terms.iter().map(|(_, exp)| exp.bits()).max().unwrap_or(0);
        let mut buckets = vec![L::zeroed(k); 1 << c];
        // `None` stands for Mont(1): the first factor is copied in, not
        // multiplied.
        let mut acc: Option<L> = None;
        let (mut running, mut fold, mut tmp) = (L::zeroed(k), L::zeroed(k), L::zeroed(k));
        let mul_into = |slot: &mut L, tmp: &mut L, fresh: bool, by: &[u64]| {
            if fresh {
                slot.as_mut().copy_from_slice(by);
            } else {
                self.mul(tmp.as_mut(), slot.as_ref(), by);
                std::mem::swap(slot, tmp);
            }
        };
        for w in (0..max_bits.div_ceil(c)).rev() {
            if let Some(acc) = acc.as_mut() {
                self.square_times(acc, &mut tmp, c);
            }
            // Bit `d` set: bucket `d` holds a product (c ≤ 6, so 64 bits).
            let mut occupied = 0u64;
            for (base, (_, exp)) in bases.iter().zip(terms) {
                let d = bits_at(exp.limbs(), w * c, c);
                if d != 0 {
                    let fresh = occupied & (1 << d) == 0;
                    mul_into(&mut buckets[d], &mut tmp, fresh, base.as_ref());
                    occupied |= 1 << d;
                }
            }
            if occupied == 0 {
                continue;
            }
            // running = Π_{j ≥ d} bucket_j, fold = Π_{j ≥ d} running_j, so
            // bucket_d ends up in the fold d times.
            let top = occupied.ilog2() as usize;
            for d in (1..=top).rev() {
                if occupied & (1 << d) != 0 {
                    mul_into(&mut running, &mut tmp, d == top, buckets[d].as_ref());
                }
                mul_into(&mut fold, &mut tmp, d == top, running.as_ref());
            }
            match acc.as_mut() {
                Some(acc) => mul_into(acc, &mut tmp, false, fold.as_ref()),
                None => acc = Some(fold.clone()),
            }
        }
        self.demont(acc.as_ref().unwrap_or(&self.r1).as_ref())
    }
}

impl Kernel<[u64; FIXED_LIMBS]> {
    /// `out = t · R^{-1} mod n` for a 10-limb `t < n²` and `n` of
    /// [`is_shaped`]'s shape: five steps of three limb products each (see
    /// the `Limbs` impl), then [`subtract_n_unless_below`].
    ///
    /// Step `i` reads limb `i`, which only the product and the steps
    /// before it wrote. Its `hi64(m·c)` goes off limbs `i + 1 ..= 4` by a
    /// borrow chain of fixed length, whose borrow out of limb 4 is owed
    /// to limb 5. Each `m·top` is added once the low half is done, in the
    /// high half's one carry chain, except the low limb of step 0's: that
    /// is limb 4, which step 4 reads. Nothing branches on a value but the
    /// final subtraction.
    #[inline(always)]
    fn reduce_shaped(&self, out: &mut [u64], mut t: [u64; 2 * FIXED_LIMBS]) {
        const K: usize = FIXED_LIMBS;
        assert!(out.len() == K);
        debug_assert!(is_shaped(&self.n), "a fixed-width kernel for {:x?}", self.n);
        let [n0, _, _, _, n4] = self.n;
        let c = n0.wrapping_neg();
        // m·top = m·(n4 + 1) < 2^128, also at top = 2^64.
        let m_top = |m: u64| m as u128 * n4 as u128 + m as u128;
        let mut m = [0u64; K];
        // What the low half owes limb 5 and what it carries into it.
        let (mut owed, mut carried) = (0u64, 0u64);
        for i in 0..K {
            m[i] = t[i].wrapping_mul(self.n0inv);
            let mut borrow = ((m[i] as u128 * c as u128) >> 64) as u64;
            for limb in &mut t[i + 1..K] {
                let (d, b) = limb.overflowing_sub(borrow);
                *limb = d;
                borrow = b as u64;
            }
            owed += borrow;
            if i == 0 {
                let (sum, over) = t[K - 1].overflowing_add(m_top(m[0]) as u64);
                t[K - 1] = sum;
                carried = over as u64;
            }
        }
        // (t + Σ mᵢ·n·2^{64i}) / R < 2n: five limbs and a carry.
        let mut acc = carried as i128 - owed as i128;
        for j in 0..K {
            acc += t[K + j] as i128 + (m_top(m[j]) >> 64) as i128;
            if j + 1 < K {
                acc += m_top(m[j + 1]) as u64 as i128;
            }
            out[j] = acc as u64;
            acc >>= 64;
        }
        subtract_n_unless_below(out, acc as u64, &self.n);
    }
}

/// The kernel instantiation a modulus runs on, chosen by its shape.
#[derive(Clone, Debug)]
enum Width {
    /// Compile-time width: `[u64; 5]` residues on the stack, reduced by
    /// the modulus' shape.
    Fixed(Kernel<[u64; FIXED_LIMBS]>),
    /// Run-time width: `Vec<u64>` residues, reduced by CIOS.
    RunTime(Kernel<Vec<u64>>),
}

/// Precomputed per-modulus state for Montgomery multiplication.
///
/// Valid for odd moduli `n > 1`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    kernel: Width,
    /// The modulus as a `BigUint` (for reductions and the public getter).
    modulus: BigUint,
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `> 1`; `None` otherwise.
    ///
    /// A modulus of the shape `top·2^256 − c` (five limbs, the middle three
    /// all ones, as the Schnorr group prime is) gets the compile-time-width
    /// kernel, every other odd modulus the run-time-width one; results are
    /// identical either way.
    pub fn new(modulus: &BigUint) -> Option<MontgomeryCtx> {
        Self::build(modulus, is_shaped(modulus.limbs()))
    }

    /// Like [`Self::new`] but always on the run-time-width kernel, so the
    /// differential tests can run both instantiations on one shaped
    /// modulus. Not a tuning choice: production code calls [`Self::new`].
    #[doc(hidden)]
    pub fn new_run_time_width(modulus: &BigUint) -> Option<MontgomeryCtx> {
        Self::build(modulus, false)
    }

    fn build(modulus: &BigUint, fixed: bool) -> Option<MontgomeryCtx> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let kernel = if fixed {
            Width::Fixed(Kernel::new(modulus))
        } else {
            Width::RunTime(Kernel::new(modulus))
        };
        Some(MontgomeryCtx {
            kernel,
            modulus: modulus.clone(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `x mod n`, borrowing `x` when it is already reduced (the hot case:
    /// public keys and table bases are range-checked before they get here).
    pub(crate) fn reduced<'a>(&self, x: &'a BigUint) -> Cow<'a, BigUint> {
        if x.cmp_val(&self.modulus) == Ordering::Less {
            Cow::Borrowed(x)
        } else {
            Cow::Owned(x.rem(&self.modulus))
        }
    }

    /// `(a * b) mod n` through the Montgomery multiplier.
    ///
    /// Worth it only when the context is already cached: a one-shot call
    /// pays two conversions on top of the multiply.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.reduced(a), self.reduced(b));
        match &self.kernel {
            Width::Fixed(kernel) => kernel.mul_mod(&a, &b),
            Width::RunTime(kernel) => kernel.mul_mod(&a, &b),
        }
    }

    /// `x · y^steps mod n` by `steps` kernel multiplications, each waiting
    /// on the one before: what `bench_micro` divides by `steps` to time
    /// one multiplication.
    #[doc(hidden)]
    pub fn mul_chain(&self, x: &BigUint, y: &BigUint, steps: usize) -> BigUint {
        let (x, y) = (self.reduced(x), self.reduced(y));
        match &self.kernel {
            Width::Fixed(kernel) => kernel.chain(&x, Some(&y), steps),
            Width::RunTime(kernel) => kernel.chain(&x, Some(&y), steps),
        }
    }

    /// `x^(2^steps) mod n` by `steps` kernel squarings in a row: the
    /// squaring's counterpart of [`Self::mul_chain`].
    #[doc(hidden)]
    pub fn sqr_chain(&self, x: &BigUint, steps: usize) -> BigUint {
        let x = self.reduced(x);
        match &self.kernel {
            Width::Fixed(kernel) => kernel.chain(&x, None, steps),
            Width::RunTime(kernel) => kernel.chain(&x, None, steps),
        }
    }

    /// Builds the comb of `shape` for `base` (see [`CombShape`]).
    pub(crate) fn comb(&self, base: &BigUint, shape: CombShape) -> Comb {
        let base = self.reduced(base);
        match &self.kernel {
            Width::Fixed(kernel) => kernel.comb(&base, shape),
            Width::RunTime(kernel) => kernel.comb(&base, shape),
        }
    }

    /// `Π combᵢ^{expᵢ} mod n` over combs this context built, in one walk
    /// whose squarings every term shares; an empty product is 1.
    pub(crate) fn pow_combs<const N: usize>(
        &self,
        terms: [(&Comb, &[u64; COMB_LIMBS]); N],
    ) -> BigUint {
        match &self.kernel {
            Width::Fixed(kernel) => kernel.pow_combs(terms),
            Width::RunTime(kernel) => kernel.pow_combs(terms),
        }
    }

    /// `base^exp mod n` by fixed-window (w = 4) exponentiation.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = self.reduced(base);
        match &self.kernel {
            Width::Fixed(kernel) => kernel.modpow(&base, exp),
            Width::RunTime(kernel) => kernel.modpow(&base, exp),
        }
    }

    /// Whether `a^e ≡ b^e (mod n)` for a small exponent `e ≥ 1`, that is,
    /// whether `a` and `b` differ by an `e`-th root of unity. Costs two
    /// conversions and `2·(⌊log₂ e⌋ + popcount(e) − 1)` multiplications
    /// (twelve for the Schnorr cofactor 28), with no table and no
    /// division: what clearing a cofactor on both sides of a group
    /// equation needs.
    ///
    /// # Panics
    ///
    /// If `e` is zero.
    pub fn eq_pow_u64(&self, a: &BigUint, b: &BigUint, e: u64) -> bool {
        assert!(e >= 1, "exponent must be at least 1");
        let (a, b) = (self.reduced(a), self.reduced(b));
        match &self.kernel {
            Width::Fixed(kernel) => kernel.eq_pow_small(&a, &b, e),
            Width::RunTime(kernel) => kernel.eq_pow_small(&a, &b, e),
        }
    }

    /// `Π baseᵢ^{expᵢ} mod n` over `(base, exp)` terms as ONE Pippenger
    /// bucket multi-exponentiation: the cost per term falls as the batch
    /// grows, which is what a batched signature check is made of. The
    /// window is chosen from the exponents' bit lengths by
    /// [`bucket_window`]; an empty product is 1.
    pub fn multi_pow(&self, terms: &[(&BigUint, &BigUint)]) -> BigUint {
        let terms: Vec<(Cow<'_, BigUint>, &BigUint)> = terms
            .iter()
            .map(|&(base, exp)| (self.reduced(base), exp))
            .collect();
        let c = bucket_window(terms.iter().map(|(_, exp)| exp.bits()));
        match &self.kernel {
            Width::Fixed(kernel) => kernel.multi_pow(&terms, c),
            Width::RunTime(kernel) => kernel.multi_pow(&terms, c),
        }
    }
}

/// The bucket window `c ≤ MAX_WINDOW` with the fewest modelled
/// multiplications for terms whose exponents have these bit lengths:
/// per window `c` squarings and a fold of about `2^c` plus one
/// multiplication per occupied bucket, and one bucket multiplication per
/// term per window its exponent reaches. A pure function of the lengths,
/// so the same batch always runs the same schedule.
pub fn bucket_window(exp_bits: impl Iterator<Item = u32> + Clone) -> u32 {
    let terms = exp_bits.clone().count() as u64;
    let max_bits = exp_bits.clone().max().unwrap_or(0);
    let cost = |c: u32| {
        let per_window = u64::from(c) + (1 << c) + terms.min(1 << c);
        let in_buckets: u64 = exp_bits.clone().map(|b| u64::from(b.div_ceil(c))).sum();
        u64::from(max_bits.div_ceil(c)) * per_window + in_buckets
    };
    // The first minimiser: a later window must be strictly cheaper.
    let first = (1, cost(1));
    let (best, _) = (2..=MAX_WINDOW).fold(first, |(best, least), c| match cost(c) {
        cheaper if cheaper < least => (c, cheaper),
        _ => (best, least),
    });
    best
}

/// The `width ≤ 6` bits of `exp` starting at bit `bit`, straight from the
/// limbs; a window that straddles two limbs takes its high part from the
/// next one, and everything past the top limb reads as zero.
#[inline]
fn bits_at(exp: &[u64], bit: u32, width: u32) -> usize {
    let (limb, off) = ((bit / 64) as usize, bit % 64);
    let Some(&lo) = exp.get(limb) else { return 0 };
    let mut v = lo >> off;
    if off + width > 64 {
        v |= exp.get(limb + 1).map_or(0, |hi| hi << (64 - off));
    }
    v as usize & ((1 << width) - 1)
}

/// `limbs` zero-padded to a `k`-limb residue.
fn padded<L: Limbs>(limbs: &[u64], k: usize) -> L {
    let mut out = L::zeroed(k);
    out.as_mut()[..limbs.len()].copy_from_slice(limbs);
    out
}

/// Compares equal-length little-endian limb slices as integers.
#[inline]
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn odd_modulus(rng: &mut StdRng, bits: u32) -> BigUint {
        BigUint::random_bits(rng, bits).set_bit(bits - 1).set_bit(0)
    }

    /// `top·2^256 − c`, the shape the compile-time width takes.
    fn shaped(top: u128, c: u64) -> BigUint {
        BigUint::from_u128(top).shl(256).sub(&BigUint::from_u64(c))
    }

    /// A random shaped modulus: odd `c`, `top` from 2 to 2^64.
    fn random_shaped(rng: &mut StdRng) -> BigUint {
        shaped(rng.random_range(2..=1u128 << 64), rng.random::<u64>() | 1)
    }

    fn shape(rows: u32, tables: u32, steps: u32) -> CombShape {
        CombShape::checked(rows, tables, steps).expect("a valid shape")
    }

    /// The limbs of a comb exponent below 2^256.
    fn limbs(x: &BigUint) -> [u64; COMB_LIMBS] {
        let mut out = [0u64; COMB_LIMBS];
        out[..x.limbs().len()].copy_from_slice(x.limbs());
        out
    }

    /// The generator's shape and a key's.
    const G: (u32, u32, u32) = (8, 2, 16);
    const KEY: (u32, u32, u32) = (4, 4, 16);

    /// `a^x · b^y` the way a verification computes `g^s · y^{q−e}`: the
    /// generator's comb for `a` and a key's for `b`, one walk.
    fn dual(ctx: &MontgomeryCtx, a: &BigUint, x: &BigUint, b: &BigUint, y: &BigUint) -> BigUint {
        let g = ctx.comb(a, shape(G.0, G.1, G.2));
        let key = ctx.comb(b, shape(KEY.0, KEY.1, KEY.2));
        ctx.pow_combs([(&key, &limbs(y)), (&g, &limbs(x))])
    }

    #[test]
    fn comb_shapes_refuse_what_a_walk_could_not_index() {
        assert!(CombShape::checked(0, 4, 64).is_none());
        assert!(CombShape::checked(16, 1, 16).is_none());
        assert!(CombShape::checked(4, 0, 16).is_none());
        assert!(CombShape::checked(4, 4, 0).is_none());
        assert!(CombShape::checked(4, 64, 1).is_none());
        assert!(CombShape::checked(8, 8, 4).is_none());
        assert!(CombShape::checked(2, 1, 128).is_none());
        assert!(CombShape::checked(4, 4, 8).is_none());
        assert!(CombShape::checked(8, 1, 64).is_none());
        assert!(CombShape::checked(4, 1 << 16, 1 << 16).is_none());
        assert_eq!(
            CombShape::checked(8, 2, 16),
            Some(CombShape::new::<8, 2, 16>())
        );
        assert_eq!(shape(KEY.0, KEY.1, KEY.2).entries(), 15);
        assert_eq!(shape(G.0, G.1, G.2).entries(), 255);
    }

    #[test]
    fn a_combs_rows_and_columns_come_straight_from_the_limbs() {
        let exp = [
            0x0123_4567_89ab_cdefu64,
            0xfedc_ba98_7654_3210,
            0x0f0f_0f0f_f0f0_f0f0,
            0x8000_0000_0000_0001,
        ];
        let rows = shape(4, 4, 16).rows_of(&exp);
        assert_eq!(rows[..4], exp[..]);
        assert_eq!(rows[4..], [0; 4]);
        let rows = shape(8, 2, 16).rows_of(&exp);
        let halves: Vec<u64> = exp
            .iter()
            .flat_map(|l| [l & 0xffff_ffff, l >> 32])
            .collect();
        assert_eq!(rows[..], halves[..]);
        // Every step's index of every sub-table against the bit-by-bit
        // definition.
        let bit = |i: u32| ((exp[(i / 64) as usize] >> (i % 64)) & 1) as usize;
        for (h, v, b) in [
            (4u32, 4u32, 16u32),
            (8, 2, 16),
            (4, 16, 4),
            (8, 1, 32),
            (4, 1, 64),
        ] {
            let shape = shape(h, v, b);
            let rows = shape.rows_of(&exp);
            for step in 0..b {
                let columns = shape.columns(&rows, step);
                for t in 0..v {
                    let want = (0..h).fold(0, |i, j| i | bit((j * v + t) * b + step) << j);
                    assert_eq!(shape.index(columns, t), want, "{h}x{v}x{b} step {step}");
                }
            }
        }
    }

    /// Every shape at both widths against the schoolbook power, with
    /// random exponents of every length up to 256 bits, ones whose top
    /// rows are zero, zero itself and all ones.
    #[test]
    fn every_comb_shape_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(21);
        let shapes = [
            shape(4, 1, 64),
            shape(4, 4, 16),
            shape(4, 16, 4),
            shape(8, 1, 32),
            shape(8, 2, 16),
            shape(8, 4, 8),
        ];
        let all_ones = BigUint::one().shl(COMB_BITS).sub(&BigUint::one());
        for bits in [64u32, 260, 321] {
            let m = odd_modulus(&mut rng, bits);
            for ctx in [
                MontgomeryCtx::new(&m).unwrap(),
                MontgomeryCtx::new_run_time_width(&m).unwrap(),
            ] {
                let base = BigUint::random_bits(&mut rng, bits + 3);
                for shape in shapes {
                    let comb = ctx.comb(&base, shape);
                    for exp_bits in [1u32, 17, 64, 129, 255, 256] {
                        let exp = BigUint::random_bits(&mut rng, exp_bits);
                        let low = exp.rem(&BigUint::one().shl(exp_bits / 2));
                        for exp in [exp, low, BigUint::zero(), all_ones.clone()] {
                            assert_eq!(
                                ctx.pow_combs([(&comb, &limbs(&exp))]),
                                base.modpow_schoolbook(&exp, &m),
                                "bits={bits} shape={shape:?} exp={exp:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Single bits at every (row, sub-table, step) of both shapes in use,
    /// and whole bit columns, at both widths: each single bit against the
    /// running square of the base, each column against the schoolbook
    /// power. A comb whose sub-tables swapped bases fails here.
    #[test]
    fn single_bits_and_whole_columns_match_at_both_widths() {
        let mut rng = StdRng::seed_from_u64(24);
        let m = random_shaped(&mut rng);
        let base = BigUint::random_bits(&mut rng, 300).rem(&m);
        for ctx in [
            MontgomeryCtx::new(&m).unwrap(),
            MontgomeryCtx::new_run_time_width(&m).unwrap(),
        ] {
            for (h, v, b) in [G, KEY] {
                let comb = ctx.comb(&base, shape(h, v, b));
                let mut power = base.clone();
                for at in 0..COMB_BITS {
                    let exp = BigUint::one().shl(at);
                    assert_eq!(ctx.pow_combs([(&comb, &limbs(&exp))]), power, "bit {at}");
                    power = power.mul_mod(&power, &m);
                }
                for step in 0..b {
                    let column = (0..h * v).fold(BigUint::zero(), |e, block| {
                        e.add(&BigUint::one().shl(block * b + step))
                    });
                    let want = base.modpow_schoolbook(&column, &m);
                    assert_eq!(ctx.pow_combs([(&comb, &limbs(&column))]), want);
                }
            }
        }
    }

    /// Terms of different step counts meet in one walk: the shorter
    /// ones join the shared chain at their own top step.
    #[test]
    fn combs_of_different_steps_share_one_walk() {
        let mut rng = StdRng::seed_from_u64(25);
        let m = odd_modulus(&mut rng, 260);
        for ctx in [
            MontgomeryCtx::new(&m).unwrap(),
            MontgomeryCtx::new_run_time_width(&m).unwrap(),
        ] {
            let (a, b) = (
                BigUint::random_bits(&mut rng, 260),
                BigUint::random_bits(&mut rng, 260),
            );
            let short = ctx.comb(&a, shape(4, 16, 4));
            let long = ctx.comb(&b, shape(8, 1, 32));
            for _ in 0..4 {
                let (x, y) = (
                    BigUint::random_bits(&mut rng, 256),
                    BigUint::random_bits(&mut rng, 200),
                );
                let want = a
                    .modpow_schoolbook(&x, &m)
                    .mul_mod(&b.modpow_schoolbook(&y, &m), &m);
                assert_eq!(
                    ctx.pow_combs([(&short, &limbs(&x)), (&long, &limbs(&y))]),
                    want
                );
                assert_eq!(
                    ctx.pow_combs([(&long, &limbs(&y)), (&short, &limbs(&x))]),
                    want
                );
            }
            assert_eq!(ctx.pow_combs([]), BigUint::one());
        }
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(100)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(101)).is_some());
    }

    #[test]
    fn mul_mod_matches_schoolbook_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [64u32, 128, 192, 260, 521] {
            let n = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            for _ in 0..50 {
                let a = BigUint::random_bits(&mut rng, bits + 17);
                let b = BigUint::random_bits(&mut rng, bits);
                assert_eq!(
                    ctx.mul_mod(&a, &b),
                    a.rem(&n).mul_mod(&b.rem(&n), &n),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn mul_mod_edge_operands() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = odd_modulus(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let n_minus_1 = n.sub(&BigUint::one());
        let cases = [
            BigUint::zero(),
            BigUint::one(),
            n_minus_1.clone(),
            n.clone(), // operand = modulus reduces to zero
        ];
        for a in &cases {
            for b in &cases {
                assert_eq!(ctx.mul_mod(a, b), a.rem(&n).mul_mod(&b.rem(&n), &n));
            }
        }
        // (n-1)^2 = 1 mod n.
        assert_eq!(ctx.mul_mod(&n_minus_1, &n_minus_1), BigUint::one());
    }

    #[test]
    fn modpow_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(13);
        for bits in [64u32, 255, 260] {
            let n = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            for _ in 0..20 {
                let base = BigUint::random_bits(&mut rng, bits + 5);
                let exp = BigUint::random_bits(&mut rng, bits);
                assert_eq!(
                    ctx.modpow(&base, &exp),
                    base.modpow_schoolbook(&exp, &n),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn modpow_edge_exponents() {
        let mut rng = StdRng::seed_from_u64(14);
        let n = odd_modulus(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::random_bits(&mut rng, 256);
        assert_eq!(ctx.modpow(&base, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.modpow(&base, &BigUint::one()), base.rem(&n));
        assert_eq!(
            ctx.modpow(&BigUint::zero(), &BigUint::from_u64(5)),
            BigUint::zero()
        );
        assert_eq!(
            ctx.modpow(&BigUint::one(), &BigUint::from_u64(1 << 40)),
            BigUint::one()
        );
    }

    #[test]
    fn to_from_mont_roundtrip() {
        let mut rng = StdRng::seed_from_u64(15);
        let n = random_shaped(&mut rng);
        let fixed: Kernel<[u64; FIXED_LIMBS]> = Kernel::new(&n);
        let run_time: Kernel<Vec<u64>> = Kernel::new(&n);
        for _ in 0..100 {
            let x = BigUint::random_bits(&mut rng, 320).rem(&n);
            let m = fixed.to_mont(&x);
            assert_eq!(m.as_slice(), run_time.to_mont(&x).as_slice());
            assert_eq!(fixed.demont(&m), x);
            assert_eq!(run_time.demont(&m), x);
        }
    }

    #[test]
    fn windows_come_straight_from_the_limbs() {
        let exp = [0xfedc_ba98_7654_3210u64, 0x5];
        let window_at = |exp: &[u64], w: u32| bits_at(exp, w * WINDOW, WINDOW);
        for w in 0..16 {
            assert_eq!(window_at(&exp, w), w as usize);
        }
        assert_eq!(window_at(&exp, 16), 5);
        assert_eq!(window_at(&exp, 17), 0);
        assert_eq!(window_at(&exp, 32), 0); // past the top limb
        assert_eq!(window_at(&[], 0), 0);
    }

    #[test]
    fn wide_windows_take_their_high_bits_from_the_next_limb() {
        // Bits 60..=66 are 1011_101: the top nibble of limb 0 is 0xd, the
        // low three bits of limb 1 are 0b101.
        let exp = [0xd000_0000_0000_0000u64, 0x5, 0];
        assert_eq!(bits_at(&exp, 60, 6), 0b01_1101);
        assert_eq!(bits_at(&exp, 62, 5), 0b1_0111);
        assert_eq!(bits_at(&exp, 63, 3), 0b011);
        assert_eq!(bits_at(&exp, 64, 6), 0b101);
        // The last limb has no next one; past it everything is zero.
        assert_eq!(bits_at(&[u64::MAX], 60, 6), 0b1111);
        assert_eq!(bits_at(&[u64::MAX], 64, 6), 0);
        // Every width at every offset against the bit-by-bit definition.
        let exp = [0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3210, 0x5a5a];
        let bit = |i: u32| (exp[(i / 64) as usize] >> (i % 64)) & 1;
        for width in 1..=MAX_WINDOW {
            for at in 0..(192 - width) {
                let expected = (0..width).fold(0, |v, j| v | (bit(at + j) as usize) << j);
                assert_eq!(bits_at(&exp, at, width), expected, "at={at} width={width}");
            }
        }
    }

    #[test]
    fn eq_pow_u64_is_equality_up_to_a_root_of_unity() {
        // Z_29* has order 28: every unit is a 28th root of unity, ±1 are
        // the square roots, and 0 is only ever equal to itself.
        let ctx = MontgomeryCtx::new(&BigUint::from_u64(29)).unwrap();
        let n = |v: u64| BigUint::from_u64(v);
        for a in 1..29 {
            for b in 1..29 {
                assert!(ctx.eq_pow_u64(&n(a), &n(b), 28));
                assert_eq!(ctx.eq_pow_u64(&n(a), &n(b), 1), a == b);
                assert_eq!(ctx.eq_pow_u64(&n(a), &n(b), 2), a == b || a + b == 29);
            }
            assert!(!ctx.eq_pow_u64(&n(a), &n(0), 28));
        }
        // Against schoolbook powers at both widths, unreduced operands too.
        let mut rng = StdRng::seed_from_u64(19);
        for bits in [64u32, 260] {
            let m = odd_modulus(&mut rng, bits);
            for ctx in [
                MontgomeryCtx::new(&m).unwrap(),
                MontgomeryCtx::new_run_time_width(&m).unwrap(),
            ] {
                for e in [1u64, 2, 3, 7, 28, 255, u64::MAX] {
                    let a = BigUint::random_bits(&mut rng, bits + 3);
                    let b = BigUint::random_bits(&mut rng, bits);
                    let pow = |x: &BigUint| x.modpow_schoolbook(&BigUint::from_u64(e), &m);
                    assert_eq!(ctx.eq_pow_u64(&a, &b, e), pow(&a) == pow(&b));
                    assert!(ctx.eq_pow_u64(&a, &a.rem(&m), e));
                    let minus_a = m.sub(&a.rem(&m));
                    assert_eq!(ctx.eq_pow_u64(&a, &minus_a, e), e % 2 == 0);
                }
            }
        }
    }

    #[test]
    fn multi_pow_of_nothing_is_one() {
        let mut rng = StdRng::seed_from_u64(20);
        let n = odd_modulus(&mut rng, 260);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        assert_eq!(ctx.multi_pow(&[]), BigUint::one());
        let (a, zero) = (BigUint::random_bits(&mut rng, 260), BigUint::zero());
        assert_eq!(ctx.multi_pow(&[(&a, &zero), (&a, &zero)]), BigUint::one());
        // One term is a plain exponentiation, two are a product of two.
        let (b, x, y) = (
            BigUint::random_bits(&mut rng, 270),
            BigUint::random_bits(&mut rng, 255),
            BigUint::random_bits(&mut rng, 128),
        );
        assert_eq!(ctx.multi_pow(&[(&a, &x)]), ctx.modpow(&a, &x));
        assert_eq!(
            ctx.multi_pow(&[(&a, &x), (&b, &y)]),
            dual(&ctx, &a, &x, &b, &y)
        );
    }

    #[test]
    fn bucket_window_grows_with_the_batch_and_stops_at_six() {
        // The shape of a signature batch: per member one 128-bit and one
        // 255-bit exponent, and one more 255-bit one for g.
        let window = |n: usize| bucket_window((0..n).flat_map(|_| [128u32, 255]).chain([255]));
        assert_eq!(bucket_window(std::iter::empty()), 1);
        let sizes = [4usize, 8, 32, 64, 256, 1 << 12, 1 << 16];
        let windows: Vec<u32> = sizes.iter().map(|&n| window(n)).collect();
        assert_eq!(windows, [2, 3, 4, 5, 6, 6, 6]);
    }

    #[test]
    fn only_shaped_moduli_pick_the_fixed_kernel() {
        let mut rng = StdRng::seed_from_u64(18);
        let fixed = |n: &BigUint| matches!(MontgomeryCtx::new(n).unwrap().kernel, Width::Fixed(_));
        for bits in [256u32, 257, 320, 321] {
            assert!(!fixed(&odd_modulus(&mut rng, bits)), "bits={bits}");
        }
        let p = crate::schnorr::Group::standard().p.clone();
        assert_eq!(p, shaped(14, 531));
        for n in [p, shaped(2, 1), shaped(1 << 64, 1), random_shaped(&mut rng)] {
            assert!(fixed(&n), "n={n:?}");
            // One limb off the shape is run-time width again.
            let mut limbs = n.limbs().to_vec();
            limbs[2] ^= 1 << 7;
            assert!(!fixed(&BigUint::from_limbs(limbs)), "n={n:?}");
        }
        // 2^256 − c is four limbs: top 1 is not the shape.
        assert!(!fixed(&shaped(1, 19)));
    }

    /// Operands `< n` that run the shaped reduction's chains their whole
    /// length: 0, 1, n − 1 and its neighbours, and factors of products
    /// whose low limbs are all ones (`(2^{32j} − 1)(2^{32j} + 1)`) or all
    /// zeros above a set limb 0 (`(2^{64j} + 1)²`), so a borrow runs from
    /// limb 1 to limb 4 and carries run through the high half.
    fn chain_edges(n: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        let pow2 = |bits: u32| one.shl(bits);
        let mut edges = vec![
            BigUint::zero(),
            one.clone(),
            BigUint::from_u64(2),
            n.sub(&one),
            n.sub(&BigUint::from_u64(2)),
            n.shr(1),
        ];
        for j in 1..=8 {
            edges.push(pow2(32 * j).sub(&one));
            edges.push(pow2(32 * j).add(&one));
        }
        edges.retain(|e| e < n);
        edges
    }

    /// The shaped reduction against CIOS and the schoolbook product
    /// `a·b·R⁻¹ mod n`, on the raw kernels (no conversion in between),
    /// over random shapes, p, both ends of `top` and `c`, random
    /// operands and [`chain_edges`], multiplied and squared.
    #[test]
    fn shaped_kernel_matches_cios_and_schoolbook() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut moduli = vec![
            crate::schnorr::Group::standard().p.clone(),
            shaped(2, 1),
            shaped(2, u64::MAX),
            shaped(1 << 64, 1),
            shaped(1 << 64, u64::MAX),
            shaped(u128::from(u64::MAX), 531),
        ];
        moduli.extend((0..24).map(|_| random_shaped(&mut rng)));
        for n in &moduli {
            let fixed: Kernel<[u64; FIXED_LIMBS]> = Kernel::new(n);
            let cios: Kernel<Vec<u64>> = Kernel::new(n);
            let r_inv = BigUint::one()
                .shl(320)
                .rem(n)
                .modinv(n)
                .expect("R is a unit mod odd n");
            let mut operands = chain_edges(n);
            operands.extend((0..6).map(|_| BigUint::random_bits(&mut rng, 330).rem(n)));
            for a in &operands {
                let a_limbs: [u64; FIXED_LIMBS] = padded(a.limbs(), FIXED_LIMBS);
                for b in &operands {
                    let b_limbs: [u64; FIXED_LIMBS] = padded(b.limbs(), FIXED_LIMBS);
                    let (mut got, mut want) = ([0u64; FIXED_LIMBS], vec![0u64; FIXED_LIMBS]);
                    fixed.mul(&mut got, &a_limbs, &b_limbs);
                    cios.mul(&mut want, &a_limbs, &b_limbs);
                    assert_eq!(got.as_slice(), want, "mul n={n:?} a={a:?} b={b:?}");
                    let expected = a.mul(b).mul(&r_inv).rem(n);
                    assert_eq!(BigUint::from_limbs(got.to_vec()), expected);
                }
                let (mut got, mut want) = ([0u64; FIXED_LIMBS], vec![0u64; FIXED_LIMBS]);
                fixed.sqr(&mut got, &a_limbs);
                cios.sqr(&mut want, &a_limbs);
                assert_eq!(got.as_slice(), want, "sqr n={n:?} a={a:?}");
                let expected = a.mul(a).mul(&r_inv).rem(n);
                assert_eq!(BigUint::from_limbs(got.to_vec()), expected);
            }
        }
    }

    #[test]
    fn chains_match_schoolbook_at_both_widths() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [random_shaped(&mut rng), odd_modulus(&mut rng, 200)] {
            let (x, y) = (
                BigUint::random_bits(&mut rng, 330),
                BigUint::random_bits(&mut rng, 330),
            );
            for ctx in [
                MontgomeryCtx::new(&n).unwrap(),
                MontgomeryCtx::new_run_time_width(&n).unwrap(),
            ] {
                for steps in [0usize, 1, 2, 37] {
                    let y_steps = y.modpow_schoolbook(&BigUint::from_u64(steps as u64), &n);
                    assert_eq!(
                        ctx.mul_chain(&x, &y, steps),
                        x.mul_mod(&y_steps, &n).rem(&n)
                    );
                    let two_steps = BigUint::one().shl(steps as u32);
                    assert_eq!(
                        ctx.sqr_chain(&x, steps),
                        x.modpow_schoolbook(&two_steps, &n)
                    );
                }
            }
        }
    }

    #[test]
    fn dual_exponentiation_matches_two_modpows() {
        let mut rng = StdRng::seed_from_u64(16);
        let n = odd_modulus(&mut rng, 260);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for _ in 0..20 {
            let a = BigUint::random_bits(&mut rng, 260);
            let b = BigUint::random_bits(&mut rng, 260);
            let x = BigUint::random_bits(&mut rng, 255);
            let y = BigUint::random_bits(&mut rng, 255);
            let fused = dual(&ctx, &a, &x, &b, &y);
            let split = ctx.modpow(&a, &x).mul_mod(&ctx.modpow(&b, &y), &n);
            assert_eq!(fused, split);
        }
    }

    #[test]
    fn dual_exponentiation_asymmetric_exponent_lengths() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = odd_modulus(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let a = BigUint::random_bits(&mut rng, 256);
        let b = BigUint::random_bits(&mut rng, 256);
        for (xb, yb) in [(0u32, 255u32), (255, 0), (3, 250), (250, 3)] {
            let x = BigUint::random_bits(&mut rng, xb.max(1)).rem(&BigUint::one().shl(xb.max(1)));
            let x = if xb == 0 { BigUint::zero() } else { x };
            let y = BigUint::random_bits(&mut rng, yb.max(1));
            let y = if yb == 0 { BigUint::zero() } else { y };
            let fused = dual(&ctx, &a, &x, &b, &y);
            let split = ctx.modpow(&a, &x).mul_mod(&ctx.modpow(&b, &y), &n);
            assert_eq!(fused, split, "xb={xb} yb={yb}");
        }
    }

    #[test]
    fn single_limb_modulus_works() {
        let n = BigUint::from_u64(1_000_000_007);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::from_u64(123_456);
        let exp = BigUint::from_u64(1_000_000_006);
        // Fermat: base^(p-1) = 1 mod p.
        assert_eq!(ctx.modpow(&base, &exp), BigUint::one());
    }
}
