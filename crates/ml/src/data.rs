//! Synthetic datasets and partitioning.
//!
//! The PDS² paper names no dataset (its motivating workloads are IoT/user
//! data); the gossip-vs-federated study it cites uses small tabular tasks.
//! These seeded generators produce reproducible classification and
//! regression data, plus the non-IID provider partitions that decentralized
//! learning experiments need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A supervised dataset: rows of features plus a target per row.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Feature rows (all the same length).
    pub x: Vec<Vec<f64>>,
    /// Targets (class label 0/1 for classification, real for regression).
    pub y: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, checking shape consistency.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Dataset {
        assert_eq!(x.len(), y.len(), "row/target count mismatch");
        if let Some(first) = x.first() {
            let d = first.len();
            assert!(x.iter().all(|r| r.len() == d), "ragged feature rows");
        }
        Dataset { x, y }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.x.first().map_or(0, |r| r.len())
    }

    /// Splits into (train, test) with `test_fraction` of rows held out,
    /// after a seeded shuffle.
    pub fn split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&test_fraction), "bad test fraction");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        shuffle(&mut idx, &mut rng);
        let n_test = (self.len() as f64 * test_fraction).round() as usize;
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Extracts the rows at `indices`.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Concatenates datasets (same dimension).
    pub fn concat(parts: &[Dataset]) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for p in parts {
            x.extend(p.x.iter().cloned());
            y.extend(p.y.iter().copied());
        }
        Dataset::new(x, y)
    }

    /// IID partition into `n` near-equal shards (seeded shuffle first).
    pub fn partition_iid(&self, n: usize, seed: u64) -> Vec<Dataset> {
        assert!(n >= 1);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        shuffle(&mut idx, &mut rng);
        (0..n)
            .map(|k| {
                let shard: Vec<usize> = idx.iter().copied().skip(k).step_by(n).collect();
                self.subset(&shard)
            })
            .collect()
    }

    /// Label-skewed (non-IID) partition: rows are sorted by label, carved
    /// into `2n` contiguous shards and each provider receives two — the
    /// standard pathological-non-IID construction from the federated-
    /// learning literature.
    pub fn partition_noniid(&self, n: usize, seed: u64) -> Vec<Dataset> {
        assert!(n >= 1);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| self.y[a].partial_cmp(&self.y[b]).unwrap());
        let n_shards = 2 * n;
        let shard_size = self.len().div_ceil(n_shards);
        let shards: Vec<&[usize]> = idx.chunks(shard_size).collect();
        let mut shard_order: Vec<usize> = (0..shards.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        shuffle(&mut shard_order, &mut rng);
        (0..n)
            .map(|k| {
                let mut rows = Vec::new();
                for s in shard_order.iter().skip(k).step_by(n).take(2) {
                    rows.extend_from_slice(shards[*s]);
                }
                self.subset(&rows)
            })
            .collect()
    }

    /// Fraction of rows with label 1 (classification datasets).
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.y.iter().filter(|&&v| v > 0.5).count() as f64 / self.len() as f64
    }
}

/// Fisher–Yates shuffle with the caller's RNG (keeps rand's Slice trait out
/// of the public API).
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Standard-normal sample via Box–Muller: the one Gaussian sampler every
/// noise source in the workspace draws from (DP noise is
/// `sigma * standard_normal(rng)`).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Two Gaussian blobs (binary classification, linearly separable up to
/// `spread`).
pub fn gaussian_blobs(n: usize, dim: usize, spread: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = (i % 2) as f64;
        let center = if label > 0.5 { 1.0 } else { -1.0 };
        let row: Vec<f64> = (0..dim)
            .map(|_| center + spread * standard_normal(&mut rng))
            .collect();
        x.push(row);
        y.push(label);
    }
    Dataset::new(x, y)
}

/// Linear-regression data: `y = w·x + b + noise` with a hidden seeded
/// ground-truth weight vector.
pub fn noisy_linear(n: usize, dim: usize, noise: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
    let b = standard_normal(&mut rng);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let target = crate::linalg::dot(&w, &row) + b + noise * standard_normal(&mut rng);
        x.push(row);
        y.push(target);
    }
    Dataset::new(x, y)
}

/// Simulated IoT sensor stream for one device: a daily sinusoidal pattern
/// with device-specific phase plus noise; target is the next reading.
/// Used by the marketplace examples as the providers' raw data.
pub fn iot_sensor_series(n: usize, device_phase: f64, noise: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = 4;
    let raw: Vec<f64> = (0..n + window)
        .map(|t| {
            let hour = (t % 24) as f64 / 24.0 * std::f64::consts::TAU;
            20.0 + 5.0 * (hour + device_phase).sin() + noise * standard_normal(&mut rng)
        })
        .collect();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for t in 0..n {
        x.push(raw[t..t + window].to_vec());
        y.push(raw[t + window]);
    }
    Dataset::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_balance() {
        let d = gaussian_blobs(100, 5, 0.5, 1);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 5);
        assert!((d.positive_fraction() - 0.5).abs() < 0.01);
    }

    #[test]
    fn generators_are_seeded() {
        assert_eq!(gaussian_blobs(50, 3, 1.0, 7), gaussian_blobs(50, 3, 1.0, 7));
        assert_ne!(gaussian_blobs(50, 3, 1.0, 7), gaussian_blobs(50, 3, 1.0, 8));
        assert_eq!(noisy_linear(30, 4, 0.1, 3), noisy_linear(30, 4, 0.1, 3));
    }

    #[test]
    fn split_preserves_rows() {
        let d = gaussian_blobs(100, 2, 1.0, 1);
        let (train, test) = d.split(0.25, 42);
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        // No row lost: recombine and compare multiset sizes.
        assert_eq!(train.len() + test.len(), d.len());
    }

    #[test]
    fn iid_partition_is_balanced() {
        let d = gaussian_blobs(100, 2, 1.0, 1);
        let parts = d.partition_iid(7, 9);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 100);
        for p in &parts {
            assert!((14..=15).contains(&p.len()));
            // IID: each shard keeps roughly the global class balance.
            assert!(
                (0.2..=0.8).contains(&p.positive_fraction()),
                "{}",
                p.positive_fraction()
            );
        }
    }

    #[test]
    fn noniid_partition_skews_labels() {
        let d = gaussian_blobs(400, 2, 1.0, 1);
        let parts = d.partition_noniid(10, 3);
        assert_eq!(parts.len(), 10);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 400);
        // Most providers should be heavily skewed toward one class.
        let skewed = parts
            .iter()
            .filter(|p| p.positive_fraction() < 0.15 || p.positive_fraction() > 0.85)
            .count();
        assert!(skewed >= 6, "only {skewed}/10 providers are label-skewed");
    }

    #[test]
    fn concat_restores_total() {
        let d = gaussian_blobs(60, 2, 1.0, 1);
        let parts = d.partition_iid(3, 2);
        let merged = Dataset::concat(&parts);
        assert_eq!(merged.len(), 60);
        assert_eq!(merged.dim(), 2);
    }

    #[test]
    fn iot_series_shape() {
        let d = iot_sensor_series(48, 0.3, 0.1, 5);
        assert_eq!(d.len(), 48);
        assert_eq!(d.dim(), 4);
        // Values hover around 20 (the simulated baseline temperature).
        let mean: f64 = d.y.iter().sum::<f64>() / 48.0;
        assert!((15.0..25.0).contains(&mean), "{mean}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn target_count_mismatch_rejected() {
        let _ = Dataset::new(vec![vec![1.0]], vec![0.0, 1.0]);
    }
}
