//! Oblivious primitives for side-channel-resistant enclave code.
//!
//! §III-B of the paper notes that SGX "side-channel leaks are possible but
//! can be avoided using oblivious primitives" (Ohrimenko et al., USENIX
//! Sec'16). These helpers make control flow and memory-access patterns
//! independent of secret data:
//!
//! - [`o_select`] — branchless conditional select;
//! - [`o_swap`] — branchless conditional swap;
//! - [`o_access`] — array read that touches every element;
//! - [`o_sort`] — bitonic sort, whose compare-exchange sequence depends
//!   only on the input length.
//!
//! In this simulation the primitives are functionally real (the data-
//! independent access pattern is structurally guaranteed), even though no
//! physical side channel exists to defend against.

/// Branchless select: returns `a` if `cond` is true, else `b`.
#[inline]
pub fn o_select(cond: bool, a: u64, b: u64) -> u64 {
    let mask = (cond as u64).wrapping_neg(); // all-ones or all-zeros
    (a & mask) | (b & !mask)
}

/// Branchless conditional swap: swaps `a` and `b` iff `cond`.
#[inline]
pub fn o_swap(cond: bool, a: &mut u64, b: &mut u64) {
    let mask = (cond as u64).wrapping_neg();
    let diff = (*a ^ *b) & mask;
    *a ^= diff;
    *b ^= diff;
}

/// Oblivious array access: reads `data[index]` while touching every
/// element, so the memory trace is independent of `index`.
pub fn o_access(data: &[u64], index: usize) -> u64 {
    assert!(index < data.len(), "index out of bounds");
    let mut out = 0u64;
    for (i, &v) in data.iter().enumerate() {
        out |= o_select(i == index, v, 0);
    }
    out
}

/// Oblivious bitonic sort (ascending). The sequence of compare-exchange
/// positions depends only on `data.len()`, never on the values.
///
/// Operates on the next power of two by virtually padding with `u64::MAX`.
pub fn o_sort(data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    let mut buf: Vec<u64> = Vec::with_capacity(padded);
    buf.extend_from_slice(data);
    buf.resize(padded, u64::MAX);

    // Iterative bitonic network.
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    let (lo, hi) = (i.min(l), i.max(l));
                    let (left, right) = buf.split_at_mut(hi);
                    let a = &mut left[lo];
                    let b = &mut right[0];
                    // Compare-exchange, direction fixed by position.
                    let should_swap = if ascending { *a > *b } else { *a < *b };
                    o_swap(should_swap, a, b);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    data.copy_from_slice(&buf[..n]);
}

/// Counts compare-exchange operations the bitonic network performs for a
/// given input length — used to verify data-independence in tests and to
/// charge cost models.
pub fn o_sort_comparisons(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let padded = n.next_power_of_two() as u64;
    let stages = padded.trailing_zeros() as u64;
    // Bitonic network: padded/2 comparators per substage, stages*(stages+1)/2 substages.
    (padded / 2) * stages * (stages + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn select_behaviour() {
        assert_eq!(o_select(true, 7, 9), 7);
        assert_eq!(o_select(false, 7, 9), 9);
    }

    #[test]
    fn swap_behaviour() {
        let (mut a, mut b) = (1u64, 2u64);
        o_swap(false, &mut a, &mut b);
        assert_eq!((a, b), (1, 2));
        o_swap(true, &mut a, &mut b);
        assert_eq!((a, b), (2, 1));
    }

    #[test]
    fn access_matches_indexing() {
        let data: Vec<u64> = (10..20).collect();
        for i in 0..data.len() {
            assert_eq!(o_access(&data, i), data[i]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn access_rejects_oob() {
        let _ = o_access(&[1, 2, 3], 3);
    }

    #[test]
    fn sort_sorts() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 100, 255, 256] {
            let mut data: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
            let mut expected = data.clone();
            expected.sort_unstable();
            o_sort(&mut data);
            assert_eq!(data, expected, "n={n}");
        }
    }

    #[test]
    fn sort_handles_duplicates_and_extremes() {
        let mut data = vec![5, 5, 5, 0, u64::MAX, 1, u64::MAX];
        let mut expected = data.clone();
        expected.sort_unstable();
        o_sort(&mut data);
        assert_eq!(data, expected);
    }

    #[test]
    fn comparison_count_is_data_independent() {
        // The formula depends only on n.
        assert_eq!(o_sort_comparisons(0), 0);
        assert_eq!(o_sort_comparisons(1), 0);
        assert_eq!(o_sort_comparisons(2), 1);
        // n=4: padded=4, stages=2, comparators = 2 * 3 = 6.
        assert_eq!(o_sort_comparisons(4), 6);
        // n=5..8 all pad to 8: 4 * 6 = 24.
        for n in 5..=8 {
            assert_eq!(o_sort_comparisons(n), 24);
        }
    }
}
