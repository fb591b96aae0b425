//! Shapley-value reward allocation (§IV-A).
//!
//! "Shapley value is a promising solution … However, the complexity of
//! calculating the Shapley value is exponential, and thus it is unfeasible
//! to use it as is." This module provides both sides of that sentence:
//!
//! - [`exact_shapley`] — the exact exponential computation (feasible to
//!   n ≈ 20), used as ground truth;
//! - [`monte_carlo_shapley`] — truncated Monte-Carlo permutation sampling
//!   (Ghorbani & Zou's "Data Shapley"), the practical scheme;
//! - [`leave_one_out`] and [`proportional`] — the cheap baselines the
//!   experiments compare against;
//! - axiom checks (efficiency, symmetry, dummy) used by the tests and the
//!   governance layer's audit.
//!
//! Utility functions are arbitrary coalition valuations `v: 2^N -> R`
//! with `v(∅)` defining the baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A coalition utility function: maps a sorted set of player indices to a
/// real value. Implementations should memoize if evaluation is expensive.
pub trait Utility {
    /// Value of the coalition (player indices, strictly increasing).
    fn value(&mut self, coalition: &[usize]) -> f64;

    /// Number of players.
    fn n_players(&self) -> usize;
}

/// A utility backed by a closure (plus player count).
///
/// Coalition valuations are memoized: Monte-Carlo permutation sampling
/// revisits the same prefixes constantly (the empty set, singletons, the
/// grand coalition), so repeated closure invocations are skipped. The
/// `evaluations` counter still counts every [`Utility::value`] call so
/// cost accounting (E7) is unaffected; `memo_hits`/`memo_misses` break
/// that total down by cache outcome.
#[derive(Clone)]
pub struct FnUtility<F: FnMut(&[usize]) -> f64> {
    f: F,
    n: usize,
    memo: HashMap<Vec<usize>, f64>,
    /// Number of evaluations requested (cost accounting for E7).
    pub evaluations: u64,
    /// Evaluations answered from the memo cache.
    pub memo_hits: u64,
    /// Evaluations that invoked the underlying closure.
    pub memo_misses: u64,
}

impl<F: FnMut(&[usize]) -> f64> FnUtility<F> {
    /// Wraps a closure.
    pub fn new(n: usize, f: F) -> Self {
        FnUtility {
            f,
            n,
            memo: HashMap::new(),
            evaluations: 0,
            memo_hits: 0,
            memo_misses: 0,
        }
    }
}

impl<F: FnMut(&[usize]) -> f64> Utility for FnUtility<F> {
    fn value(&mut self, coalition: &[usize]) -> f64 {
        self.evaluations += 1;
        if let Some(&v) = self.memo.get(coalition) {
            self.memo_hits += 1;
            return v;
        }
        self.memo_misses += 1;
        let v = (self.f)(coalition);
        self.memo.insert(coalition.to_vec(), v);
        v
    }

    fn n_players(&self) -> usize {
        self.n
    }
}

/// The most players [`exact_shapley`] takes: 2^20 coalition valuations.
pub const MAX_EXACT_PLAYERS: usize = 20;

/// Exact Shapley values by full subset enumeration: O(2^n · n) utility
/// evaluations. Panics above [`MAX_EXACT_PLAYERS`] — that is the point of
/// E7.
#[allow(clippy::needless_range_loop)] // bitmask-indexed subset table
pub fn exact_shapley<U: Utility>(utility: &mut U) -> Vec<f64> {
    let n = utility.n_players();
    assert!(
        n <= MAX_EXACT_PLAYERS,
        "exact Shapley is exponential; use monte_carlo_shapley"
    );
    if n == 0 {
        return Vec::new();
    }
    // Precompute v(S) for every subset S (bitmask indexed).
    let mut values = vec![0.0; 1usize << n];
    let mut members = Vec::with_capacity(n);
    for mask in 0..(1usize << n) {
        members.clear();
        for i in 0..n {
            if mask >> i & 1 == 1 {
                members.push(i);
            }
        }
        values[mask] = utility.value(&members);
    }
    // Factorial weights: |S|! (n-|S|-1)! / n!
    let mut fact = vec![1.0f64; n + 1];
    for i in 1..=n {
        fact[i] = fact[i - 1] * i as f64;
    }
    let mut shapley = vec![0.0; n];
    for (i, s) in shapley.iter_mut().enumerate() {
        for mask in 0..(1usize << n) {
            if mask >> i & 1 == 1 {
                continue; // S must exclude i
            }
            let size = (mask as u64).count_ones() as usize;
            let weight = fact[size] * fact[n - size - 1] / fact[n];
            *s += weight * (values[mask | 1 << i] - values[mask]);
        }
    }
    shapley
}

/// Configuration for truncated Monte-Carlo Shapley.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Number of random permutations to sample.
    pub permutations: usize,
    /// Truncation: once a prefix's value is within this absolute distance
    /// of the grand-coalition value, remaining marginals are taken as 0.
    pub truncation_tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            permutations: 200,
            truncation_tolerance: 1e-4,
            seed: 0,
        }
    }
}

/// Derives the RNG for task `index` of a computation seeded with `seed`.
///
/// Uses two rounds of SplitMix64 finalization over `seed ^ φ·index`, so
/// neighbouring task indices receive statistically independent streams
/// and task 0's stream differs from `StdRng::seed_from_u64(seed)`.
fn stream_rng(seed: u64, index: u64) -> StdRng {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Marginal contributions of every player under permutation `perm_index`.
///
/// The permutation is drawn from its own RNG stream derived from
/// `(cfg.seed, perm_index)`, so the result is a pure function of the
/// config and the index, independent of how many permutations run before
/// it.
fn permutation_marginals<U: Utility>(
    utility: &mut U,
    cfg: &McConfig,
    v_full: f64,
    v_empty: f64,
    perm_index: usize,
) -> Vec<f64> {
    let n = utility.n_players();
    let mut rng = stream_rng(cfg.seed, perm_index as u64);
    // Fisher–Yates from the identity permutation.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    let mut marginals = vec![0.0; n];
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut prev_value = v_empty;
    for &player in &perm {
        prefix.push(player);
        prefix.sort_unstable();
        let value = utility.value(&prefix);
        marginals[player] = value - prev_value;
        prev_value = value;
        if (v_full - value).abs() <= cfg.truncation_tolerance {
            // Remaining marginals are taken as zero.
            break;
        }
    }
    marginals
}

/// Truncated Monte-Carlo Shapley approximation.
///
/// Each permutation draws from an independent RNG stream keyed by
/// `(cfg.seed, permutation_index)` and contributes a marginal vector that
/// is summed in permutation order. Every permutation shares the caller's
/// utility, so a memoizing utility values each coalition once per split.
pub fn monte_carlo_shapley<U: Utility>(utility: &mut U, cfg: &McConfig) -> Vec<f64> {
    let n = utility.n_players();
    if n == 0 {
        return Vec::new();
    }
    assert!(cfg.permutations > 0, "need at least one permutation");
    let full: Vec<usize> = (0..n).collect();
    let v_full = utility.value(&full);
    let v_empty = utility.value(&[]);
    let mut sums = vec![0.0; n];
    for p in 0..cfg.permutations {
        let marginals = permutation_marginals(utility, cfg, v_full, v_empty, p);
        for (s, m) in sums.iter_mut().zip(&marginals) {
            *s += m;
        }
    }
    sums.iter().map(|s| s / cfg.permutations as f64).collect()
}

/// Leave-one-out valuation: `v(N) - v(N \ {i})`.
pub fn leave_one_out<U: Utility>(utility: &mut U) -> Vec<f64> {
    let n = utility.n_players();
    let full: Vec<usize> = (0..n).collect();
    let v_full = utility.value(&full);
    (0..n)
        .map(|i| {
            let without: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            v_full - utility.value(&without)
        })
        .collect()
}

/// Proportional-to-weight baseline (e.g. rewards by dataset size — the
/// "monetization of data based on size" the paper says "do\[es\] not work
/// well"). Returns shares that sum to `total`.
pub fn proportional(weights: &[f64], total: f64) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return vec![total / weights.len().max(1) as f64; weights.len()];
    }
    weights.iter().map(|w| total * w / sum).collect()
}

/// Normalizes raw valuations into non-negative reward shares summing to
/// `total` (negative valuations floor at zero).
pub fn to_reward_shares(valuations: &[f64], total: f64) -> Vec<f64> {
    let clipped: Vec<f64> = valuations.iter().map(|v| v.max(0.0)).collect();
    let sum: f64 = clipped.iter().sum();
    if sum <= 0.0 {
        return vec![total / valuations.len().max(1) as f64; valuations.len()];
    }
    clipped.iter().map(|v| total * v / sum).collect()
}

/// Checks the efficiency axiom: Σφᵢ = v(N) − v(∅) within tolerance.
pub fn check_efficiency<U: Utility>(utility: &mut U, shapley: &[f64], tol: f64) -> bool {
    let n = utility.n_players();
    let full: Vec<usize> = (0..n).collect();
    let expected = utility.value(&full) - utility.value(&[]);
    (shapley.iter().sum::<f64>() - expected).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Additive game: v(S) = Σ weights[i].
    fn additive(weights: Vec<f64>) -> FnUtility<impl FnMut(&[usize]) -> f64> {
        let n = weights.len();
        FnUtility::new(n, move |s: &[usize]| s.iter().map(|&i| weights[i]).sum())
    }

    /// Majority game: v(S) = 1 if |S| > n/2 else 0.
    fn majority(n: usize) -> FnUtility<impl FnMut(&[usize]) -> f64> {
        FnUtility::new(
            n,
            move |s: &[usize]| if s.len() * 2 > n { 1.0 } else { 0.0 },
        )
    }

    #[test]
    fn additive_game_shapley_equals_weights() {
        let mut u = additive(vec![3.0, 1.0, 6.0]);
        let phi = exact_shapley(&mut u);
        for (p, w) in phi.iter().zip([3.0, 1.0, 6.0]) {
            assert!((p - w).abs() < 1e-9, "{phi:?}");
        }
    }

    #[test]
    fn symmetry_axiom() {
        let mut u = majority(5);
        let phi = exact_shapley(&mut u);
        for w in phi.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12,
                "symmetric players equal shares"
            );
        }
    }

    #[test]
    fn dummy_axiom() {
        // Player 2 contributes nothing.
        let mut u = additive(vec![5.0, 2.0, 0.0]);
        let phi = exact_shapley(&mut u);
        assert!(phi[2].abs() < 1e-12);
    }

    #[test]
    fn efficiency_axiom_exact() {
        let mut u = majority(7);
        let phi = exact_shapley(&mut u);
        assert!(check_efficiency(&mut u, &phi, 1e-9));
    }

    #[test]
    fn monte_carlo_approximates_exact() {
        let weights = vec![1.0, 4.0, 2.0, 3.0, 0.5];
        let mut u = additive(weights.clone());
        let exact = exact_shapley(&mut u);
        let mut u2 = additive(weights);
        let mc = monte_carlo_shapley(
            &mut u2,
            &McConfig {
                permutations: 400,
                truncation_tolerance: 0.0,
                seed: 3,
            },
        );
        for (e, m) in exact.iter().zip(&mc) {
            assert!((e - m).abs() < 0.3, "exact {exact:?} vs mc {mc:?}");
        }
    }

    #[test]
    fn monte_carlo_efficiency_holds_without_truncation() {
        let mut u = majority(6);
        let mc = monte_carlo_shapley(
            &mut u,
            &McConfig {
                permutations: 100,
                truncation_tolerance: -1.0, // never truncate
                seed: 1,
            },
        );
        // Permutation sampling is exactly efficient per permutation.
        assert!((mc.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{mc:?}");
    }

    #[test]
    fn truncation_cuts_evaluations() {
        // Utility saturates once any player joins -> deep prefixes skipped.
        let mut full = FnUtility::new(12, |s: &[usize]| if s.is_empty() { 0.0 } else { 1.0 });
        let _ = monte_carlo_shapley(
            &mut full,
            &McConfig {
                permutations: 50,
                truncation_tolerance: -1.0,
                seed: 2,
            },
        );
        let no_trunc_evals = full.evaluations;
        let mut truncated = FnUtility::new(12, |s: &[usize]| if s.is_empty() { 0.0 } else { 1.0 });
        let _ = monte_carlo_shapley(
            &mut truncated,
            &McConfig {
                permutations: 50,
                truncation_tolerance: 1e-6,
                seed: 2,
            },
        );
        assert!(
            truncated.evaluations * 3 < no_trunc_evals,
            "truncation should save most evaluations: {} vs {}",
            truncated.evaluations,
            no_trunc_evals
        );
    }

    #[test]
    fn leave_one_out_on_additive_game() {
        let mut u = additive(vec![2.0, 5.0]);
        assert_eq!(leave_one_out(&mut u), vec![2.0, 5.0]);
    }

    #[test]
    fn leave_one_out_misses_redundancy() {
        // Two identical players: LOO gives both zero (either alone
        // suffices), while Shapley splits the value fairly — the reason
        // the paper prefers Shapley.
        let mut u = FnUtility::new(2, |s: &[usize]| if s.is_empty() { 0.0 } else { 1.0 });
        let loo = leave_one_out(&mut u);
        assert_eq!(loo, vec![0.0, 0.0]);
        let mut u2 = FnUtility::new(2, |s: &[usize]| if s.is_empty() { 0.0 } else { 1.0 });
        let phi = exact_shapley(&mut u2);
        assert!((phi[0] - 0.5).abs() < 1e-12 && (phi[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn proportional_shares() {
        assert_eq!(proportional(&[1.0, 3.0], 100.0), vec![25.0, 75.0]);
        // Zero weights degrade to equal split.
        assert_eq!(proportional(&[0.0, 0.0], 100.0), vec![50.0, 50.0]);
    }

    #[test]
    fn reward_shares_floor_negatives() {
        let shares = to_reward_shares(&[-1.0, 1.0, 3.0], 100.0);
        assert_eq!(shares, vec![0.0, 25.0, 75.0]);
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memoization_counts_hits_and_misses() {
        let mut u = additive(vec![1.0, 2.0, 3.0]);
        u.value(&[0, 1]);
        u.value(&[0, 1]);
        u.value(&[2]);
        assert_eq!(u.evaluations, 3);
        assert_eq!(u.memo_hits, 1);
        assert_eq!(u.memo_misses, 2);
        // Distinct coalitions stay distinct keys.
        assert_ne!(u.value(&[0]), u.value(&[0, 1]));
    }

    #[test]
    fn stream_rngs_are_independent_and_deterministic() {
        let mut a = stream_rng(42, 0);
        let mut a2 = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let xs: Vec<u64> = (0..32).map(|_| a.random()).collect();
        let xs2: Vec<u64> = (0..32).map(|_| a2.random()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.random()).collect();
        assert_eq!(xs, xs2, "same (seed, index) must replay");
        assert_ne!(xs, ys, "different indices must diverge");
        let mut c = stream_rng(43, 0);
        let zs: Vec<u64> = (0..32).map(|_| c.random()).collect();
        assert_ne!(xs, zs, "different seeds must diverge");
    }

    #[test]
    fn permutation_streams_make_estimate_independent_of_order() {
        // Evaluating only the second half of the permutations must give
        // the same per-permutation marginals as a full run: each stream
        // depends on (seed, index) alone.
        let mut u = additive(vec![2.0, 5.0, 1.0]);
        let cfg = McConfig {
            permutations: 10,
            truncation_tolerance: -1.0,
            seed: 4,
        };
        let full: Vec<usize> = (0..3).collect();
        let v_full = u.value(&full);
        let v_empty = u.value(&[]);
        let direct = permutation_marginals(&mut u, &cfg, v_full, v_empty, 7);
        let mut u2 = additive(vec![2.0, 5.0, 1.0]);
        for p in 0..7 {
            let _ = permutation_marginals(&mut u2, &cfg, v_full, v_empty, p);
        }
        let after_others = permutation_marginals(&mut u2, &cfg, v_full, v_empty, 7);
        assert_eq!(direct, after_others);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn exact_rejects_large_n() {
        let mut u = FnUtility::new(MAX_EXACT_PLAYERS + 1, |_: &[usize]| 0.0);
        let _ = exact_shapley(&mut u);
    }

    #[test]
    fn empty_game() {
        let mut u = FnUtility::new(0, |_: &[usize]| 0.0);
        assert!(exact_shapley(&mut u).is_empty());
        assert!(monte_carlo_shapley(&mut u, &McConfig::default()).is_empty());
    }
}
