//! Small statistics and process helpers shared by every workload.

/// Deterministic input generator (SplitMix64): the same seed gives the
/// same inputs on every host, independent of the program's own RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Durations are measured on the calibrated clock (`clock.rs`), which
/// takes out the host's own slow spells. Two errors are left.
/// Interference the clock cannot see (cache and memory contention) makes
/// a batch slower, never faster; and a calibration reading that is a few
/// milliseconds stale at the edge of a slow spell can make a single
/// batch look faster than it was. So a timing is summarised by its
/// **quiet quartile**: the 25th percentile of per-batch times, the 75th
/// of per-batch rates. It reads the undisturbed half of the run without
/// resting on its extremes. Over ten runs of each workload its spread was 0.06 at
/// most, where the fastest batch moved up to 0.18 and the median up to
/// 0.085 (README.md, "Steadiness").
const QUIET_PCT: f64 = 25.0;

pub fn quiet_time(values: &[f64]) -> f64 {
    percentile(values, QUIET_PCT)
}

/// See [`quiet_time`].
pub fn quiet_rate(values: &[f64]) -> f64 {
    percentile(values, 100.0 - QUIET_PCT)
}

/// The tail percentile a sample supports: the highest one, capped at
/// p99, that still leaves at least ten samples beyond it. A sample of
/// twenty or fewer is summarised by its slowest member instead.
pub fn tail_pct(n: usize) -> f64 {
    if n <= 20 {
        return 100.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 99.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quiet_value_is_the_fast_side() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quiet_time(&v), 25.0);
        assert_eq!(quiet_rate(&v), 75.0);
        assert_eq!(quiet_time(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quiet_rate(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(400), 97.5);
        assert_eq!(tail_pct(100_000), 99.0);
        assert_eq!(tail_pct(12), 100.0);
    }

    #[test]
    fn rng_repeats_for_a_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).map(|_| rng.below(1_000)).collect::<Vec<u64>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
