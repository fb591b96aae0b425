//! Generator-backed topologies: per-node attributes, regional latency,
//! churn traces and arrival schedules derived on demand from
//! `hash(seed, node_id)` instead of materialized per-node vectors.
//!
//! At 100k+ nodes, storing per-node link state (the old
//! `LinkModel::node_slowdown` vector, explicit churn schedules, per-node
//! load curves) costs memory and — worse — setup time that scales with
//! the fleet. A [`Topology`] stores only a seed plus an r×r regional
//! latency matrix; everything per-node (region, slowdown, churn
//! sessions, arrival jitter) is a couple of integer hashes away. Two
//! simulators built from the same `(seed, matrix)` agree on every
//! attribute without exchanging any state, which keeps the wheel-vs-heap
//! differential checks cheap at any scale.
//!
//! All derived quantities use integer arithmetic only (fixed-point in
//! 1/1024ths where fractions are needed), so delivery times are
//! platform-independent by construction.

use crate::fault::CrashSpec;
use crate::sim::{NodeId, SimTime};

const DOMAIN_REGION: u64 = 0x7031_5245_4749_4f4e; // "REGION" tag
const DOMAIN_SLOW: u64 = 0x7032_534c_4f57_444e; // "SLOWDN" tag
const DOMAIN_CHURN: u64 = 0x7033_4348_5552_4e00; // "CHURN" tag
const DOMAIN_ARRIVAL: u64 = 0x7034_4152_5249_5645; // "ARRIVE" tag

/// splitmix64 finalizer: the stateless hash behind every derived
/// attribute.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded two-input hash: `node` attributes under a domain tag.
#[inline]
fn node_hash(seed: u64, domain: u64, node: u64) -> u64 {
    mix(mix(seed ^ domain) ^ node)
}

/// A generator-backed network topology: regions with a pairwise base
/// latency matrix, plus hash-derived per-node region assignment and
/// slowdown. No per-node storage — attributes are recomputed on demand.
#[derive(Clone, Debug)]
pub struct Topology {
    seed: u64,
    /// Cumulative region weights for weighted node→region assignment.
    cum_weights: Vec<u64>,
    total_weight: u64,
    /// Row-major r×r one-way base latency in µs.
    latency_us: Vec<u64>,
    n_regions: usize,
    /// Per-node slowdown is hash-uniform in `[min, max]`, in 1/1024ths
    /// (1024 = no slowdown).
    slow_min_x1024: u64,
    slow_max_x1024: u64,
}

impl Topology {
    /// A topology over `weights.len()` regions. `weights[r]` is the
    /// relative share of nodes assigned to region `r`;
    /// `latency_us[a][b]` is the one-way base latency from region `a`
    /// to region `b` in microseconds.
    pub fn regional(seed: u64, weights: &[u64], latency_us: &[Vec<u64>]) -> Topology {
        let r = weights.len();
        assert!(r > 0, "at least one region");
        assert_eq!(latency_us.len(), r, "latency matrix must be r x r");
        let mut flat = Vec::with_capacity(r * r);
        for row in latency_us {
            assert_eq!(row.len(), r, "latency matrix must be r x r");
            flat.extend_from_slice(row);
        }
        let mut cum = Vec::with_capacity(r);
        let mut total = 0u64;
        for &w in weights {
            assert!(w > 0, "region weights must be positive");
            total += w;
            cum.push(total);
        }
        Topology {
            seed,
            cum_weights: cum,
            total_weight: total,
            latency_us: flat,
            n_regions: r,
            slow_min_x1024: 1024,
            slow_max_x1024: 1024,
        }
    }

    /// A five-region WAN preset (NA / EU / APAC / SA / AF) with
    /// continent-scale one-way latencies and population-skewed weights.
    pub fn five_continents(seed: u64) -> Topology {
        let lat = |ms: u64| ms * 1_000;
        let m = vec![
            vec![lat(15), lat(45), lat(75), lat(65), lat(85)],
            vec![lat(45), lat(10), lat(90), lat(95), lat(55)],
            vec![lat(75), lat(90), lat(20), lat(140), lat(110)],
            vec![lat(65), lat(95), lat(140), lat(25), lat(120)],
            vec![lat(85), lat(55), lat(110), lat(120), lat(30)],
        ];
        Topology::regional(seed, &[30, 25, 25, 12, 8], &m)
    }

    /// Gives nodes a hash-uniform slowdown in `[min, max]` (1/1024ths;
    /// both at least 1024). Models heterogeneous device speeds without
    /// a per-node vector.
    pub fn with_slowdown_spread(mut self, min_x1024: u64, max_x1024: u64) -> Topology {
        assert!(
            (1024..=max_x1024).contains(&min_x1024),
            "need 1024 <= min <= max"
        );
        self.slow_min_x1024 = min_x1024;
        self.slow_max_x1024 = max_x1024;
        self
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// The region `node` is assigned to (hash-derived, weight-skewed).
    pub fn region_of(&self, node: NodeId) -> usize {
        let h = node_hash(self.seed, DOMAIN_REGION, node as u64) % self.total_weight;
        self.cum_weights.partition_point(|&c| c <= h)
    }

    /// One-way base latency between the regions of `from` and `to`.
    pub fn base_latency_us(&self, from: NodeId, to: NodeId) -> u64 {
        self.latency_us[self.region_of(from) * self.n_regions + self.region_of(to)]
    }

    /// `node`'s speed multiplier in 1/1024ths (≥ 1024; 1024 = full
    /// speed), hash-uniform in the configured spread.
    pub fn slowdown_x1024(&self, node: NodeId) -> u64 {
        let span = self.slow_max_x1024 - self.slow_min_x1024;
        if span == 0 {
            return self.slow_min_x1024;
        }
        self.slow_min_x1024 + node_hash(self.seed, DOMAIN_SLOW, node as u64) % (span + 1)
    }
}

/// A mobile-churn generator: a hash-selected fraction of the fleet
/// alternates up/down sessions with hash-jittered durations. A session
/// is a crash and its recovery; [`crate::fault::FaultPlan::churn`] adds
/// them to a plan.
#[derive(Clone, Copy, Debug)]
pub struct ChurnModel {
    /// Sessions are generated up to this horizon (µs).
    pub horizon_us: SimTime,
    /// Mean up-session length (µs); actual sessions are hash-uniform in
    /// `[mean/2, 3*mean/2)`.
    pub mean_uptime_us: SimTime,
    /// Mean down-session length (µs), jittered the same way.
    pub mean_downtime_us: SimTime,
    /// Fraction of nodes that churn at all, in 1/1024ths.
    pub churn_fraction_x1024: u64,
}

impl ChurnModel {
    /// Compiles the churn trace for an `n_nodes` fleet under `seed`.
    /// Deterministic in `(seed, model, n_nodes)`.
    pub(crate) fn trace(&self, seed: u64, n_nodes: usize) -> Vec<CrashSpec> {
        let mut out = Vec::new();
        let jitter = |h: u64, mean: SimTime| mean / 2 + h % mean.max(1);
        for node in 0..n_nodes {
            let h0 = node_hash(seed, DOMAIN_CHURN, node as u64);
            if h0 % 1024 >= self.churn_fraction_x1024 {
                continue;
            }
            let mut t = jitter(mix(h0 ^ 1), self.mean_uptime_us);
            let mut k = 2u64;
            while t < self.horizon_us {
                let down = jitter(mix(h0 ^ k), self.mean_downtime_us).max(1);
                out.push(CrashSpec {
                    node,
                    at: t,
                    recover_at: Some(t + down),
                });
                let up = jitter(mix(h0 ^ (k + 1)), self.mean_uptime_us).max(1);
                t = t + down + up;
                k += 2;
            }
        }
        out
    }
}

/// Workload arrival-rate shapes, modulating a mean inter-arrival time.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalPattern {
    /// Flat offered load.
    Constant,
    /// Diurnal load curve: a triangle wave dipping to
    /// `trough_x1024/1024` of peak rate at phase 0 and back to peak at
    /// mid-period.
    Diurnal {
        /// Full day length (µs).
        period_us: u64,
        /// Trough rate as a fraction of peak, in 1/1024ths.
        trough_x1024: u64,
    },
    /// Flash crowd: rate jumps by `surge_x1024/1024` at `at_us` and
    /// decays linearly back to baseline over `decay_us`.
    FlashCrowd {
        /// Surge onset (µs).
        at_us: u64,
        /// Extra rate at onset, in 1/1024ths of baseline.
        surge_x1024: u64,
        /// Linear decay window (µs).
        decay_us: u64,
    },
}

/// A per-node arrival generator: hash-jittered inter-arrival delays
/// around a pattern-modulated mean. Stateless — the k-th delay of any
/// node is a pure function of `(seed, node, k, now)`.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalGen {
    /// Seed for the per-arrival jitter hash.
    pub seed: u64,
    /// Baseline mean inter-arrival time per node (µs).
    pub mean_interval_us: u64,
    /// Rate modulation over simulated time.
    pub pattern: ArrivalPattern,
}

impl ArrivalGen {
    /// Instantaneous arrival rate at `t` as a multiple of baseline, in
    /// 1/1024ths.
    pub fn rate_x1024(&self, t: SimTime) -> u64 {
        match self.pattern {
            ArrivalPattern::Constant => 1024,
            ArrivalPattern::Diurnal {
                period_us,
                trough_x1024,
            } => {
                let period = period_us.max(2);
                let phase = t % period;
                let dist = phase.min(period - phase); // 0 at trough, period/2 at peak
                trough_x1024 + (1024 - trough_x1024.min(1024)) * 2 * dist / period
            }
            ArrivalPattern::FlashCrowd {
                at_us,
                surge_x1024,
                decay_us,
            } => {
                if t < at_us || t >= at_us + decay_us.max(1) {
                    1024
                } else {
                    let left = at_us + decay_us - t;
                    1024 + surge_x1024 * left / decay_us.max(1)
                }
            }
        }
    }

    /// Delay until `node`'s next arrival, where `k` counts that node's
    /// arrivals so far and `now` selects the rate. Hash-uniform in
    /// `[eff/2, 3*eff/2)` around the effective interval `eff`
    /// (baseline / rate).
    pub fn next_delay_us(&self, node: NodeId, k: u64, now: SimTime) -> u64 {
        let rate = self.rate_x1024(now).max(1);
        let eff = (self.mean_interval_us.saturating_mul(1024) / rate).max(2);
        let h = node_hash(self.seed, DOMAIN_ARRIVAL, mix(node as u64) ^ k);
        (eff / 2 + h % eff).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_deterministic_and_weight_skewed() {
        let t = Topology::five_continents(11);
        let n = 50_000;
        let mut counts = vec![0usize; t.n_regions()];
        for node in 0..n {
            let r = t.region_of(node);
            assert_eq!(r, t.region_of(node), "assignment must be stable");
            counts[r] += 1;
        }
        // Weights are [30, 25, 25, 12, 8] / 100: each region's share
        // should land within a few percent of its weight.
        let expect: [usize; 5] = [30, 25, 25, 12, 8];
        for (r, &c) in counts.iter().enumerate() {
            let pct = c * 100 / n;
            let want = expect[r];
            assert!(
                (want.saturating_sub(3)..=want + 3).contains(&pct),
                "region {r}: {pct}% vs weight {want}%"
            );
        }
    }

    #[test]
    fn latency_is_symmetric_per_preset_and_intra_region_is_cheapest() {
        let t = Topology::five_continents(3);
        for a in 0..200 {
            for b in 0..10 {
                assert_eq!(t.base_latency_us(a, b), t.base_latency_us(b, a));
            }
        }
        // Two nodes in the same region see the intra-region latency.
        let (mut a, mut b) = (0, 1);
        while t.region_of(a) != 0 {
            a += 1;
        }
        b = b.max(a + 1);
        while t.region_of(b) != 0 {
            b += 1;
        }
        assert_eq!(t.base_latency_us(a, b), 15_000);
    }

    #[test]
    fn slowdown_spread_is_bounded_and_stable() {
        let t = Topology::five_continents(5).with_slowdown_spread(1024, 8 * 1024);
        for node in 0..10_000 {
            let s = t.slowdown_x1024(node);
            assert!((1024..=8 * 1024).contains(&s));
            assert_eq!(s, t.slowdown_x1024(node));
        }
        // Default topology has no slowdown at all.
        let flat = Topology::five_continents(5);
        assert_eq!(flat.slowdown_x1024(123), 1024);
    }

    #[test]
    fn churn_trace_sessions_are_ordered_and_bounded() {
        let model = ChurnModel {
            horizon_us: 60_000_000,
            mean_uptime_us: 10_000_000,
            mean_downtime_us: 2_000_000,
            churn_fraction_x1024: 512, // ~half the fleet
        };
        let n = 2_000;
        let trace = model.trace(9, n);
        assert_eq!(trace, model.trace(9, n), "trace must be deterministic");
        let churners: std::collections::HashSet<usize> = trace.iter().map(|c| c.node).collect();
        assert!(
            (700..1300).contains(&churners.len()),
            "~half should churn, got {}",
            churners.len()
        );
        // Per node: sessions strictly ordered, downtime within
        // [mean/2, 3*mean/2), first crash no earlier than mean/2 uptime.
        for node in churners {
            let mut last_recover = 0;
            for c in trace.iter().filter(|c| c.node == node) {
                assert!(c.at >= last_recover);
                assert!(c.at < model.horizon_us);
                let rec = c.recover_at.expect("churn sessions always recover");
                let down = rec - c.at;
                assert!((1_000_000..3_000_000).contains(&down), "down={down}");
                last_recover = rec;
            }
        }
    }

    #[test]
    fn diurnal_rate_peaks_mid_period_and_flash_crowd_decays() {
        let d = ArrivalGen {
            seed: 1,
            mean_interval_us: 1_000_000,
            pattern: ArrivalPattern::Diurnal {
                period_us: 86_400_000_000,
                trough_x1024: 256,
            },
        };
        assert_eq!(d.rate_x1024(0), 256);
        assert_eq!(d.rate_x1024(43_200_000_000), 1024);
        assert!(d.rate_x1024(21_600_000_000) > 256);
        assert!(d.rate_x1024(21_600_000_000) < 1024);

        let f = ArrivalGen {
            seed: 1,
            mean_interval_us: 1_000_000,
            pattern: ArrivalPattern::FlashCrowd {
                at_us: 1_000_000,
                surge_x1024: 10 * 1024,
                decay_us: 2_000_000,
            },
        };
        assert_eq!(f.rate_x1024(0), 1024);
        assert_eq!(f.rate_x1024(1_000_000), 11 * 1024);
        let mid = f.rate_x1024(2_000_000);
        assert!((1024..11 * 1024).contains(&mid));
        assert_eq!(f.rate_x1024(3_000_001), 1024);
    }

    #[test]
    fn arrival_delays_track_the_rate() {
        let g = ArrivalGen {
            seed: 2,
            mean_interval_us: 1_000_000,
            pattern: ArrivalPattern::FlashCrowd {
                at_us: 10_000_000,
                surge_x1024: 9 * 1024, // 10x rate at onset
                decay_us: 1_000_000,
            },
        };
        // Baseline delays are uniform in [mean/2, 3*mean/2).
        for k in 0..100 {
            let d = g.next_delay_us(7, k, 0);
            assert!((500_000..1_500_000).contains(&d), "d={d}");
            assert_eq!(d, g.next_delay_us(7, k, 0));
        }
        // At the surge the effective interval is 10x shorter.
        for k in 0..100 {
            let d = g.next_delay_us(7, k, 10_000_000);
            assert!((50_000..150_000).contains(&d), "d={d}");
        }
    }
}
