//! Montgomery-form modular arithmetic: the signature-verification fast
//! path.
//!
//! Schoolbook `mul_mod` pays a full Knuth division per multiplication.
//! [`MontgomeryCtx`] precomputes, once per (odd) modulus `n`, everything
//! needed to replace that division with a fused multiply-and-reduce
//! (CIOS — coarsely integrated operand scanning): `-n^{-1} mod 2^64` and
//! `R^2 mod n` for `R = 2^{64k}` where `k` is the limb count of `n`.
//! Every subsequent modular multiplication is then one `O(k^2)` pass with
//! no division and no allocation.
//!
//! There is one CIOS body, `Kernel::mul`, generic over how a residue is
//! stored (`Limbs`), and one squaring body beside it, `Kernel::sqr`
//! (each off-diagonal limb product once, doubled, then the same
//! reduction: about 30 % cheaper, for moduli up to eight limbs).
//! [`MontgomeryCtx::new`] looks at the modulus' limb count and picks the
//! instantiation:
//!
//! * **compile-time width** — a 5-limb modulus (the 260-bit Schnorr
//!   group prime `p`, DESIGN.md §5d) runs on `[u64; 5]` residues. The
//!   limb count is a constant, so the limb loops unroll and stay in
//!   registers, and residues live on the stack;
//! * **run-time width** — every other odd modulus (Paillier `n²`, MPC
//!   fields, Miller–Rabin candidates) runs the same code on `Vec<u64>`
//!   residues, allocated before an exponentiation's loop and reused.
//!
//! On top of the multiplier sit two exponentiation loops:
//!
//! * one walk over **row tables** (`RowShape`), behind
//!   [`MontgomeryCtx::modpow`] and the Schnorr group's `g^a` and
//!   `g^a · y^b`. Row `j` of a table holds the powers
//!   `b_j^1 .. b_j^{2^w − 1}` of `b_j = base^{2^{stride·j}}` and covers the
//!   exponent's bits `[stride·j, stride·(j+1))`, so an exponentiation is
//!   `stride / w` digit positions with `w` squarings between two of them
//!   and one multiplication per non-zero digit of every row. Three shapes
//!   run on it: one row of 4-bit windows (a plain fixed-window modpow,
//!   ~`bits` squarings plus one multiply per 4 bits), a fixed-base comb
//!   (stride = `w`, one row per window: no squaring at all, built once
//!   for the group generator) and a per-key table of a few rows at a wide
//!   stride (a verifying key's: the squaring chain shrinks by the row
//!   count). Terms of a product each run the walk and meet in one
//!   accumulator;
//! * [`MontgomeryCtx::multi_pow`] — Pippenger bucket multi-exponentiation
//!   `Π baseᵢ^{expᵢ} mod n`: no per-base table at all, one squaring chain
//!   for the whole product and, per `c`-bit window, one multiplication
//!   per term into one of `2^c − 1` buckets plus a fold of the buckets.
//!   The shared part is paid once, so the cost per term falls as terms
//!   are added (about 77 multiplications per signature at 256 signatures
//!   against about 190 for a single check under a known key), which is
//!   what a batched signature check is made of. [`bucket_window`] picks
//!   `c` from the exponents' lengths.
//!
//! [`MontgomeryCtx::eq_pow_u64`] compares two residues up to a small power
//! (`a^e = b^e`) by square-and-multiply inside the kernel: the cofactor
//! step of both signature checks, twelve multiplications at `e = 28`.
//!
//! A row table is one contiguous block of residues, and digits are read
//! straight from the exponent's limbs (a window of 3, 5 or 6 bits may
//! straddle two of them). At compile-time width nothing inside an
//! exponentiation loop touches the heap; at run-time width a residue is
//! allocated when a running product takes its first factor.
//!
//! Results are plain [`BigUint`] values, bit-identical to the schoolbook
//! path — the representation changes inside a call, never the outcome —
//! so the repo-wide determinism invariant (identical results on every
//! rerun) is untouched. Property tests in
//! `crates/crypto/tests/proptests.rs` pin the equivalence of both
//! instantiations and the schoolbook reference over random operands and
//! the edge cases (0, 1, n−1, operand = n, the final-subtraction carry).

use crate::bigint::BigUint;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Window width of the one-row table behind [`MontgomeryCtx::modpow`].
const WINDOW: u32 = 4;

/// Widest digit any loop reads: row tables hold `2^w − 1` entries per row,
/// and [`MontgomeryCtx::multi_pow`] holds 63 buckets of one residue (2.5 KB
/// at five limbs) at most, whatever the batch size.
const MAX_WINDOW: u32 = 6;

/// Limb count of the one modulus size that gets the compile-time-width
/// kernel: the 260-bit Schnorr group prime.
const FIXED_LIMBS: usize = 5;

/// Widest modulus, in limbs, whose squarings take [`Kernel::sqr`]: its
/// 2k-limb square lives in a stack array of this many limbs twice over.
const SQR_LIMBS: usize = 8;

/// How residues of one width are stored.
///
/// `[u64; K]` fixes the limb count at compile time; `Vec<u64>` carries it
/// at run time. [`Kernel`] is written once against this trait.
trait Limbs: Clone + AsRef<[u64]> + AsMut<[u64]> {
    /// A zero residue of `k` limbs.
    fn zeroed(k: usize) -> Self;
}

impl<const K: usize> Limbs for [u64; K] {
    fn zeroed(k: usize) -> Self {
        debug_assert_eq!(k, K);
        [0; K]
    }
}

impl Limbs for Vec<u64> {
    fn zeroed(k: usize) -> Self {
        vec![0; k]
    }
}

/// How a row table splits an exponent. Row `j` holds the powers
/// `b_j^1 .. b_j^{2^width − 1}` of `b_j = base^{2^{stride·j}}` and covers
/// the exponent's bits `[stride·j, stride·(j+1))`; the top row also takes
/// every bit above, so any exponent is in range (past the rows' span it
/// costs squarings). A walk reads `stride / width` digit positions, from
/// the most significant down, with `width` squarings between two of them.
///
/// The shapes in use: one row of 4-bit windows (a plain fixed-window
/// exponentiation), a comb (stride = width, one row per window, no
/// squaring) and a few rows at a wide stride (a verifying key's table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RowShape {
    width: u32,
    stride: u32,
    rows: u32,
}

impl RowShape {
    /// The one-row table of 4-bit windows.
    const ONE_ROW: RowShape = RowShape::new::<WINDOW, WINDOW, 1>();

    /// The shape of `W`-bit digits at stride `S` over `R` rows, checked
    /// when the crate compiles: an invalid one is a build error, so no
    /// value of this type can make a walk index out of range.
    pub(crate) const fn new<const W: u32, const S: u32, const R: u32>() -> RowShape {
        const { assert!(RowShape::checked(W, S, R).is_some(), "invalid row shape") };
        RowShape {
            width: W,
            stride: S,
            rows: R,
        }
    }

    /// A shape, or `None` unless `1 ≤ width ≤ 6`, `stride` is a non-zero
    /// multiple of `width`, there is at least one row and the rows' span
    /// `stride · rows` fits in 32 bits.
    const fn checked(width: u32, stride: u32, rows: u32) -> Option<RowShape> {
        let span_fits = stride.checked_mul(rows).is_some();
        if width == 0 || width > MAX_WINDOW || stride == 0 || !stride.is_multiple_of(width) {
            return None;
        }
        if rows == 0 || !span_fits {
            return None;
        }
        Some(RowShape {
            width,
            stride,
            rows,
        })
    }

    /// Residues per row: one per non-zero digit.
    fn entries(self) -> usize {
        (1 << self.width) - 1
    }

    /// Digit positions a walk over an exponent of `exp_bits` bits reads:
    /// `stride / width`, or more when the exponent reaches past the top
    /// row's stride.
    fn positions(self, exp_bits: u32) -> u32 {
        let above_lower_rows = exp_bits.saturating_sub(self.stride * (self.rows - 1));
        (self.stride / self.width).max(above_lower_rows.div_ceil(self.width))
    }
}

/// A row table (see [`RowShape`]) in Montgomery form: `rows · (2^w − 1)`
/// residues in one block. Only the context that built it may walk it;
/// outside an exponentiation call, tables are kept only by the crate's
/// one long-lived context, the Schnorr group's.
#[derive(Debug)]
pub(crate) struct PowRows {
    shape: RowShape,
    limbs: Box<[u64]>,
}

impl PowRows {
    /// Entry for digit `d ≥ 1` of row `j`, as `k` limbs.
    #[inline]
    fn entry(&self, j: u32, d: usize, k: usize) -> &[u64] {
        let at = (j as usize * self.shape.entries() + d - 1) * k;
        &self.limbs[at..at + k]
    }

    /// Heap bytes held: what a cache of tables pays per entry.
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

    /// CIOS Montgomery multiplication: `out = a · b · R^{-1} mod n`.
    ///
    /// `a` and `b` are k-limb values `< n`; so is the result. This is the
    /// only multiplication body in the module: at `L = [u64; K]` the limb
    /// count is a constant and both limb loops unroll.
    #[inline]
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = self.n.as_ref();
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
            let m = out[0].wrapping_mul(self.n0inv);
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
        // Final conditional subtraction brings the result below n; its
        // last borrow cancels `hi`.
        if hi != 0 || cmp_limbs(out, n) != Ordering::Less {
            let mut borrow = false;
            for j in 0..k {
                let (d, b1) = out[j].overflowing_sub(n[j]);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                out[j] = d;
                borrow = b1 | b2;
            }
        }
    }

    /// Montgomery squaring `out = a² · R^{-1} mod n` for `a < n`, equal to
    /// `mul(out, a, a)`: the products `aᵢ·aⱼ` with `i < j` are taken once
    /// and doubled and the diagonal added, k(k+1)/2 limb products where
    /// [`Self::mul`] takes k², then the 2k-limb square is reduced limb by
    /// limb (separated operand scanning). Squarings are most of an
    /// exponentiation's chain and all of a key's row build. Moduli wider
    /// than [`SQR_LIMBS`] multiply instead: the square is held on the
    /// stack.
    #[inline]
    fn sqr(&self, out: &mut [u64], a: &[u64]) {
        let n = self.n.as_ref();
        let k = n.len();
        if k > SQR_LIMBS {
            return self.mul(out, a, a);
        }
        // One check up front lets every index below go unchecked.
        assert!(out.len() == k && a.len() == k);
        let mut t = [0u64; 2 * SQR_LIMBS];
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
        for limb in &mut t[..2 * k] {
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
        // t = (t + m·n) / R, one limb of m at a time; `hi` is the carry
        // out of limb i + k, at most 1.
        let mut hi = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
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
        if hi != 0 || cmp_limbs(out, n) != Ordering::Less {
            let mut borrow = false;
            for j in 0..k {
                let (d, b1) = out[j].overflowing_sub(n[j]);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                out[j] = d;
                borrow = b1 | b2;
            }
        }
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

    /// The row table of `shape` for `base < n` (see [`RowShape`]). Each
    /// row's entries are successive products by its base `b`; the next
    /// row's base is `b^{2^w} = b^{2^w − 1} · b` squared `stride − w` more
    /// times. A comb's row costs `2^w − 1` multiplications, a row at a
    /// wide stride about `stride`.
    fn rows(&self, base: &BigUint, shape: RowShape) -> PowRows {
        let k = self.k();
        let (entries, rows) = (shape.entries(), shape.rows as usize);
        let mut limbs = vec![0u64; rows * entries * k];
        let mut row_base = self.to_mont(base);
        let mut tmp = L::zeroed(k);
        for (j, row) in limbs.chunks_exact_mut(entries * k).enumerate() {
            row[..k].copy_from_slice(row_base.as_ref());
            for d in 1..entries {
                let (done, next) = row.split_at_mut(d * k);
                self.mul(&mut next[..k], &done[(d - 1) * k..], row_base.as_ref());
            }
            if j + 1 < rows {
                self.mul(tmp.as_mut(), &row[(entries - 1) * k..], row_base.as_ref());
                std::mem::swap(&mut row_base, &mut tmp);
                for _ in shape.width..shape.stride {
                    self.sqr(tmp.as_mut(), row_base.as_ref());
                    std::mem::swap(&mut row_base, &mut tmp);
                }
            }
        }
        PowRows {
            shape,
            limbs: limbs.into_boxed_slice(),
        }
    }

    /// `Π tableᵢ^{expᵢ} mod n`: the one exponentiation loop over row
    /// tables. Each term walks its digit positions from the most
    /// significant down, squaring `w` times between two positions and
    /// multiplying in the entry of every non-zero digit of every row. A
    /// term of one position (a comb) has no squarings, so its digits go
    /// straight into the product; a longer one runs its own chain and
    /// joins the product with one multiplication.
    fn pow_rows(&self, terms: &[(&PowRows, &BigUint)]) -> BigUint {
        let k = self.k();
        let mut tmp = L::zeroed(k);
        let mut product: Option<L> = None;
        for &(table, exp) in terms {
            debug_assert_eq!(table.limbs.len() % k, 0, "table built for another modulus");
            let shape = table.shape;
            let (exp, positions) = (exp.limbs(), shape.positions(exp.bits()));
            let mut chain: Option<L> = None;
            let acc = if positions == 1 {
                &mut product
            } else {
                &mut chain
            };
            for i in (0..positions).rev() {
                if let Some(x) = acc.as_mut().filter(|_| i + 1 < positions) {
                    for _ in 0..shape.width {
                        self.sqr(tmp.as_mut(), x.as_ref());
                        std::mem::swap(x, &mut tmp);
                    }
                }
                // Past its stride only the top row has digits left.
                let first = if i < shape.stride / shape.width {
                    0
                } else {
                    shape.rows - 1
                };
                for j in first..shape.rows {
                    let d = bits_at(exp, j * shape.stride + i * shape.width, shape.width);
                    if d != 0 {
                        self.mul_into(acc, &mut tmp, table.entry(j, d, k));
                    }
                }
            }
            if let Some(chain) = chain {
                self.mul_into(&mut product, &mut tmp, chain.as_ref());
            }
        }
        self.demont(product.as_ref().map_or(self.r1.as_ref(), AsRef::as_ref))
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
            self.sqr(tmp.as_mut(), x.as_ref());
            std::mem::swap(x, &mut tmp);
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
                for _ in 0..c {
                    self.sqr(tmp.as_mut(), acc.as_ref());
                    std::mem::swap(acc, &mut tmp);
                }
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

/// The kernel instantiation a modulus runs on, chosen by its limb count.
#[derive(Clone, Debug)]
enum Width {
    /// Compile-time width: `[u64; 5]` residues on the stack.
    Fixed(Kernel<[u64; FIXED_LIMBS]>),
    /// Run-time width: the same code over `Vec<u64>` residues.
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
    /// A 5-limb modulus gets the compile-time-width kernel, every other
    /// size the run-time-width one; results are identical either way.
    pub fn new(modulus: &BigUint) -> Option<MontgomeryCtx> {
        Self::build(modulus, modulus.limbs().len() == FIXED_LIMBS)
    }

    /// Like [`Self::new`] but always on the run-time-width kernel, so the
    /// differential tests can run both instantiations on one 5-limb
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

    /// Builds the row table of `shape` for `base` (see [`RowShape`]).
    pub(crate) fn pow_rows(&self, base: &BigUint, shape: RowShape) -> PowRows {
        let base = self.reduced(base);
        match &self.kernel {
            Width::Fixed(kernel) => kernel.rows(&base, shape),
            Width::RunTime(kernel) => kernel.rows(&base, shape),
        }
    }

    /// `base^exp mod n` by fixed-window (w = 4) exponentiation: the
    /// one-row case of the row-table walk.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.modpow_with_rows(&[(&self.pow_rows(base, RowShape::ONE_ROW), exp)])
    }

    /// `Π tableᵢ^{expᵢ} mod n` over row tables this context built; an
    /// empty product is 1.
    pub(crate) fn modpow_with_rows(&self, terms: &[(&PowRows, &BigUint)]) -> BigUint {
        match &self.kernel {
            Width::Fixed(kernel) => kernel.pow_rows(terms),
            Width::RunTime(kernel) => kernel.pow_rows(terms),
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
    use rand::SeedableRng;

    fn odd_modulus(rng: &mut StdRng, bits: u32) -> BigUint {
        BigUint::random_bits(rng, bits).set_bit(bits - 1).set_bit(0)
    }

    fn shape(width: u32, stride: u32, rows: u32) -> RowShape {
        RowShape::checked(width, stride, rows).expect("a valid shape")
    }

    /// `a^x · b^y` the way a verification computes `g^s · y^{q−e}`: a comb
    /// for `a` and a key's eight rows for `b`, one walk.
    fn dual(ctx: &MontgomeryCtx, a: &BigUint, x: &BigUint, b: &BigUint, y: &BigUint) -> BigUint {
        let comb = ctx.pow_rows(a, shape(4, 4, 64));
        let rows = ctx.pow_rows(b, shape(2, 32, 8));
        ctx.modpow_with_rows(&[(&rows, y), (&comb, x)])
    }

    #[test]
    fn row_shapes_refuse_what_a_walk_could_not_index() {
        assert!(RowShape::checked(0, 4, 1).is_none());
        assert!(RowShape::checked(7, 7, 1).is_none());
        assert!(RowShape::checked(4, 6, 1).is_none());
        assert!(RowShape::checked(2, 0, 1).is_none());
        assert!(RowShape::checked(2, 32, 0).is_none());
        assert!(RowShape::checked(1, 1 << 16, 1 << 16).is_none());
        assert_eq!(RowShape::checked(4, 4, 1), Some(RowShape::ONE_ROW));
        assert_eq!(shape(2, 32, 8).positions(255), 16);
        assert_eq!(shape(4, 4, 64).positions(256), 1);
        assert_eq!(shape(4, 4, 64).positions(260), 2);
        assert_eq!(shape(4, 4, 1).positions(0), 1);
        assert_eq!(shape(4, 4, 1).positions(255), 64);
    }

    /// Every shape at both widths against the schoolbook power, with
    /// exponents inside the rows' span, reaching past it, with zero top
    /// windows and zero.
    #[test]
    fn every_row_shape_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(21);
        let shapes = [
            shape(4, 4, 1),
            shape(1, 1, 1),
            shape(6, 6, 1),
            shape(4, 4, 64),
            shape(2, 32, 8),
            shape(3, 6, 5),
            shape(5, 10, 3),
            shape(6, 60, 2),
        ];
        for bits in [64u32, 260, 321] {
            let m = odd_modulus(&mut rng, bits);
            for ctx in [
                MontgomeryCtx::new(&m).unwrap(),
                MontgomeryCtx::new_run_time_width(&m).unwrap(),
            ] {
                let base = BigUint::random_bits(&mut rng, bits + 3);
                for shape in shapes {
                    let table = ctx.pow_rows(&base, shape);
                    for exp_bits in [1u32, 17, 64, 129, 255, 256, 300] {
                        let exp = BigUint::random_bits(&mut rng, exp_bits);
                        let low = exp.rem(&BigUint::one().shl(exp_bits / 2));
                        for exp in [exp, low, BigUint::zero()] {
                            assert_eq!(
                                ctx.modpow_with_rows(&[(&table, &exp)]),
                                base.modpow_schoolbook(&exp, &m),
                                "bits={bits} shape={shape:?} exp={exp:?}"
                            );
                        }
                    }
                }
            }
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
        let n = odd_modulus(&mut rng, 320);
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
    fn five_limb_moduli_pick_the_fixed_kernel() {
        let mut rng = StdRng::seed_from_u64(18);
        for (bits, fixed) in [(256u32, false), (257, true), (320, true), (321, false)] {
            let ctx = MontgomeryCtx::new(&odd_modulus(&mut rng, bits)).unwrap();
            assert_eq!(matches!(ctx.kernel, Width::Fixed(_)), fixed, "bits={bits}");
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
