//! Windowed SLO telemetry over *logical* time.
//!
//! The metrics registry (`crate::snapshot`) reports run-to-date totals;
//! post-hoc analysis scans a finished capture. Neither can answer "is
//! the system violating its SLO *right now*?" while a simulation is
//! still running. This module adds that live view without giving up
//! determinism: windows advance on the logical [`Stamp::Sim`] clock
//! carried by the observations themselves, never the wall clock, so a
//! monitor fed the same observation sequence fires at the same logical
//! instant in every rerun — and its alert
//! transitions are regular digested trace events, pinned by the same
//! golden-digest machinery as everything else.
//!
//! [`SloMonitor`] is a multi-window burn-rate alert rule in the
//! Google-SRE style. An observation is *bad* when it exceeds the
//! objective's threshold; the monitor fires when the bad fraction burns
//! the error budget at ≥ the configured rate over a short *and* a long
//! window (the short window gives fast detection, the long one
//! suppresses single-burst noise). A quantile objective is a budget:
//! "p99 ≤ T" is "at most 1% of observations exceed T", `budget_bp = 100`,
//! so the windows count observations and bad observations and nothing
//! else.

use crate::trace::{Stamp, TraceCtx};

#[derive(Clone)]
struct Bucket {
    /// Which time-bucket index this slot currently holds, or
    /// `u64::MAX` when empty.
    stamp: u64,
    count: u64,
    bad: u64,
}

const EMPTY_BUCKET: Bucket = Bucket {
    stamp: u64::MAX,
    count: 0,
    bad: 0,
};

/// Sliding-window counts over logical time.
///
/// The window is a ring of `buckets` slots, each covering
/// `window_us / buckets` of logical time; a query at instant `t`
/// aggregates every slot whose time-bucket lies within `(t - window,
/// t]`. Observations and queries are pure integer bookkeeping —
/// identical inputs yield identical outputs on every platform.
struct WindowedMetric {
    bucket_us: u64,
    slots: Vec<Bucket>,
    /// Badness threshold: observations strictly greater count toward
    /// [`bad`](WindowedMetric::bad).
    threshold: u64,
}

impl WindowedMetric {
    /// A window spanning `window_us` of logical time, divided into
    /// `buckets` ring slots (expiry granularity = `window_us/buckets`).
    fn new(window_us: u64, buckets: usize) -> WindowedMetric {
        let buckets = buckets.max(1);
        WindowedMetric {
            bucket_us: (window_us / buckets as u64).max(1),
            slots: vec![EMPTY_BUCKET; buckets],
            threshold: u64::MAX,
        }
    }

    /// Sets the badness threshold (observations `> threshold` count as
    /// bad in [`bad`](WindowedMetric::bad)).
    fn with_threshold(mut self, threshold: u64) -> WindowedMetric {
        self.threshold = threshold;
        self
    }

    /// Records `value` at logical instant `t_us`.
    fn observe(&mut self, t_us: u64, value: u64) {
        let idx = t_us / self.bucket_us;
        let slot = (idx % self.slots.len() as u64) as usize;
        let b = &mut self.slots[slot];
        if b.stamp != idx {
            *b = EMPTY_BUCKET;
            b.stamp = idx;
        }
        b.count += 1;
        if value > self.threshold {
            b.bad += 1;
        }
    }

    fn live(&self, t_us: u64) -> impl Iterator<Item = &Bucket> {
        let idx = t_us / self.bucket_us;
        let oldest = idx.saturating_sub(self.slots.len() as u64 - 1);
        self.slots
            .iter()
            .filter(move |b| b.stamp != u64::MAX && b.stamp >= oldest && b.stamp <= idx)
    }

    /// Observations inside the window ending at `t_us`.
    fn count(&self, t_us: u64) -> u64 {
        self.live(t_us).map(|b| b.count).sum()
    }

    /// Bad observations (`> threshold`) inside the window.
    fn bad(&self, t_us: u64) -> u64 {
        self.live(t_us).map(|b| b.bad).sum()
    }
}

/// A multi-window burn-rate alert rule.
///
/// The objective is "at most `budget_bp` basis points of observations
/// may exceed `threshold`". The *burn rate* is the observed bad
/// fraction divided by that budget; a burn rate of 1.0 consumes the
/// budget exactly, 10.0 consumes it ten times too fast. The rule fires
/// when the burn rate is ≥ `fire_burn_x100`/100 over **both** windows
/// and the long window has seen at least `min_count` observations;
/// it resolves when the short-window burn rate drops back below the
/// firing rate.
#[derive(Clone, Copy, Debug)]
pub struct SloRule {
    /// Rule name; becomes the `rule` field of alert events.
    pub name: &'static str,
    /// Objective threshold: an observation `> threshold` is bad.
    pub threshold: u64,
    /// Error budget in basis points (100 = 1% of observations may be
    /// bad).
    pub budget_bp: u64,
    /// Fast-detection window, logical µs.
    pub short_window_us: u64,
    /// Noise-suppression window, logical µs.
    pub long_window_us: u64,
    /// Fire when burn ≥ this/100 on both windows (100 = exactly at
    /// budget; 1000 = 10× budget).
    pub fire_burn_x100: u64,
    /// Minimum long-window observations before the rule may fire.
    pub min_count: u64,
}

/// Evaluates an [`SloRule`] over a stream of observations and emits
/// deterministic, digested `slo.alert.fire` / `slo.alert.resolve`
/// trace events on state transitions.
///
/// Feed it from *serial* code only (the obs determinism contract):
/// the simulator loop, block production, a bench harness's
/// measurement path. Observations drive both windows and the alert
/// state machine; no background clock exists.
pub struct SloMonitor {
    rule: SloRule,
    short: WindowedMetric,
    long: WindowedMetric,
    firing: bool,
    fired: u64,
    first_fired_at: Option<u64>,
}

/// Ring slots per monitor window (expiry granularity window/16).
const WINDOW_SLOTS: usize = 16;

impl SloMonitor {
    /// A monitor with empty windows and the alert not firing.
    pub fn new(rule: SloRule) -> SloMonitor {
        SloMonitor {
            short: WindowedMetric::new(rule.short_window_us, WINDOW_SLOTS)
                .with_threshold(rule.threshold),
            long: WindowedMetric::new(rule.long_window_us, WINDOW_SLOTS)
                .with_threshold(rule.threshold),
            rule,
            firing: false,
            fired: 0,
            first_fired_at: None,
        }
    }

    /// Burn rate ×100 of one window at `t_us` (bad-fraction ÷ budget).
    fn burn_x100(w: &WindowedMetric, budget_bp: u64, t_us: u64) -> u64 {
        let count = w.count(t_us);
        if count == 0 || budget_bp == 0 {
            return 0;
        }
        w.bad(t_us) * 10_000 * 100 / (budget_bp * count)
    }

    /// Records one observation at logical instant `t_us` and evaluates
    /// the rule, emitting an alert event if the state flips.
    pub fn observe(&mut self, t_us: u64, value: u64) {
        self.short.observe(t_us, value);
        self.long.observe(t_us, value);
        let short_burn = Self::burn_x100(&self.short, self.rule.budget_bp, t_us);
        let long_burn = Self::burn_x100(&self.long, self.rule.budget_bp, t_us);
        if !self.firing {
            let fire = short_burn >= self.rule.fire_burn_x100
                && long_burn >= self.rule.fire_burn_x100
                && self.long.count(t_us) >= self.rule.min_count;
            if fire {
                self.firing = true;
                self.fired += 1;
                self.first_fired_at.get_or_insert(t_us);
                crate::event!(
                    "slo",
                    "alert.fire",
                    Stamp::Sim(t_us),
                    TraceCtx::NONE,
                    "rule" => self.rule.name,
                    "burn_short_x100" => short_burn,
                    "burn_long_x100" => long_burn,
                    "bad" => self.long.bad(t_us),
                    "count" => self.long.count(t_us),
                );
            }
        } else if short_burn < self.rule.fire_burn_x100 {
            self.firing = false;
            crate::event!(
                "slo",
                "alert.resolve",
                Stamp::Sim(t_us),
                TraceCtx::NONE,
                "rule" => self.rule.name,
                "burn_short_x100" => short_burn,
                "burn_long_x100" => long_burn,
            );
        }
    }

    /// Whether the alert is currently firing.
    pub fn firing(&self) -> bool {
        self.firing
    }

    /// Number of fire transitions so far.
    pub fn fired_count(&self) -> u64 {
        self.fired
    }

    /// Logical instant of the first fire transition, if any.
    pub fn first_fired_at(&self) -> Option<u64> {
        self.first_fired_at
    }

    /// The rule under evaluation.
    pub fn rule(&self) -> &SloRule {
        &self.rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_counts_expire() {
        let mut w = WindowedMetric::new(1_000_000, 10).with_threshold(100);
        for i in 0..10u64 {
            w.observe(i * 100_000, 50 + i * 20);
        }
        assert_eq!(w.count(900_000), 10);
        assert!(w.bad(900_000) > 0, "values over 100 must count as bad");
        // 2 s later the whole window has rolled over.
        assert_eq!(w.count(2_900_000), 0);
        assert_eq!(w.bad(2_900_000), 0);
    }

    #[test]
    fn burn_rate_fires_and_resolves_deterministically() {
        let _g = crate::test_lock();
        let rule = SloRule {
            name: "test.latency",
            threshold: 1_000,
            budget_bp: 100, // 1%
            short_window_us: 500_000,
            long_window_us: 2_000_000,
            fire_burn_x100: 1000, // 10× budget = 10% bad
            min_count: 20,
        };
        let run = || {
            let mut mon = SloMonitor::new(rule);
            // Phase 1: healthy traffic — no alert.
            for i in 0..100u64 {
                mon.observe(i * 10_000, 100);
            }
            assert!(!mon.firing(), "healthy traffic must not fire");
            // Phase 2: half the observations breach the threshold.
            for i in 100..200u64 {
                mon.observe(i * 10_000, if i % 2 == 0 { 5_000 } else { 100 });
            }
            assert!(mon.firing(), "sustained 50% badness must fire");
            let fired_at = mon.first_fired_at().expect("fired");
            // Phase 3: recovery resolves the alert.
            for i in 200..400u64 {
                mon.observe(i * 10_000, 100);
            }
            assert!(!mon.firing(), "recovery must resolve");
            (fired_at, mon.fired_count())
        };
        let cap = crate::capture(crate::SinkKind::Ring(usize::MAX));
        let out1 = run();
        let rep1 = cap.finish();
        let cap = crate::capture(crate::SinkKind::Ring(usize::MAX));
        let out2 = run();
        let rep2 = cap.finish();
        assert_eq!(out1, out2, "alert instants must replay exactly");
        assert_eq!(rep1.digest, rep2.digest, "alert events must digest equal");
        let fires = rep1
            .entries
            .iter()
            .filter(|e| e.domain == "slo" && e.name == "alert.fire")
            .count();
        let resolves = rep1
            .entries
            .iter()
            .filter(|e| e.domain == "slo" && e.name == "alert.resolve")
            .count();
        assert_eq!(fires, 1, "exactly one fire transition");
        assert_eq!(resolves, 1, "exactly one resolve transition");
    }
}
