//! Differential tests: the timing-wheel scheduler against the retained
//! binary-heap oracle.
//!
//! Both schedulers promise strict `(time, seq)` dispatch order, so any
//! workload — random sends, timers, crashes installed behind the clock,
//! fault plans, segmented deadlines — must produce bit-identical trace
//! digests, `NetStats` and final clocks whichever scheduler runs it.
//! Every test takes `pds2_obs::test_lock()`: the collector is
//! process-global, and a run on another thread would land in a digest.

use pds2_net::fault::{FaultPlan, LinkEffect, LinkScope};
use pds2_net::sched::SchedulerKind;
use pds2_net::sim::{Ctx, NetStats, Node, NodeId, SimTime, Simulator};
use pds2_net::LinkModel;
use proptest::prelude::*;
use rand::Rng;

/// A protocol that exercises every event type: each node runs a
/// periodic timer, fans a counter out to hash-chosen peers, and replies
/// to even values. Message digests commit to payloads so the trace
/// digest catches any reordering.
struct Chatter {
    period_us: u64,
    fanout: usize,
    sent: u64,
    received: Vec<u64>,
}

impl Node for Chatter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let jitter = ctx.rng().random_range(0..self.period_us);
        ctx.set_timer(jitter + 1, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.received.push(msg);
        if msg.is_multiple_of(2) && msg < 1_000_000 {
            ctx.send(from, msg + 1_000_001);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        self.sent += 1;
        let value = self.sent * 2 + ctx.id as u64 * 1_000;
        for _ in 0..self.fanout {
            if let Some(peer) = ctx.random_peer() {
                ctx.send(peer, value);
            }
        }
        ctx.set_timer(self.period_us, 0);
    }

    fn msg_size(_msg: &u64) -> u64 {
        24
    }

    fn msg_digest(msg: &u64) -> u64 {
        msg.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn corrupt_msg(msg: &u64, rng: &mut rand::rngs::StdRng) -> Option<u64> {
        Some(msg ^ (1 << rng.random_range(0..64)))
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(self.period_us, 0);
    }
}

/// Everything comparable about one run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    trace: String,
    stats: NetStats,
    now: SimTime,
    processed: u64,
    online: usize,
    received: Vec<usize>,
}

/// Runs the chatter workload under the given scheduler. `segments`
/// splits the horizon into that many `run_until` calls, with a crash
/// installed *between* segments — after the clock has advanced — so the
/// wheel's past-event overflow path is exercised exactly like the
/// heap's.
fn run(
    kind: SchedulerKind,
    n: usize,
    seed: u64,
    horizon_us: u64,
    segments: u64,
    with_faults: bool,
) -> RunFingerprint {
    let nodes = (0..n)
        .map(|i| Chatter {
            period_us: 500 + (i as u64 % 7) * 190,
            fanout: 1 + i % 3,
            sent: 0,
            received: Vec::new(),
        })
        .collect();
    let link = LinkModel {
        base_latency_us: 900,
        jitter_us: 300,
        bandwidth_bytes_per_sec: 1_250_000,
        drop_probability: 0.02,
        node_slowdown: vec![1.0, 4.0],
        topology: None,
    };
    let mut sim = Simulator::with_scheduler(nodes, link, seed, kind);
    assert_eq!(sim.scheduler_kind(), kind);
    if with_faults {
        sim.install_fault_plan(
            FaultPlan::new(seed ^ 0xFA)
                .crash(n - 1, horizon_us / 3, Some(horizon_us / 2))
                .byzantine(
                    horizon_us / 4,
                    horizon_us / 2,
                    LinkScope::any(),
                    LinkEffect::Duplicate {
                        probability: 0.2,
                        extra_delay_us: 40,
                    },
                )
                .byzantine(
                    0,
                    horizon_us,
                    LinkScope::from_node(0),
                    LinkEffect::Corrupt { probability: 0.1 },
                ),
        );
    }
    let cap = pds2_obs::capture(pds2_obs::SinkKind::Null);
    let mut processed = 0;
    for s in 1..=segments {
        processed += sim.run_until(horizon_us * s / segments);
        // Install a crash dated behind the advanced clock: the heap
        // fires it on the next pop, so the wheel must as well.
        if s == 1 && sim.now() > 100 {
            let back = Some(sim.now() + horizon_us / 8);
            sim.install_fault_plan(FaultPlan::new(seed).crash(0, sim.now() - 100, back));
        }
    }
    processed += sim.run_until(horizon_us);
    RunFingerprint {
        trace: cap.finish().digest,
        stats: sim.stats(),
        now: sim.now(),
        processed,
        online: sim.online_count(),
        received: sim.nodes().map(|c| c.received.len()).collect(),
    }
}

#[test]
fn wheel_matches_heap_on_a_fixed_chaos_workload() {
    let _obs = pds2_obs::test_lock();
    let a = run(SchedulerKind::Wheel, 12, 77, 300_000, 4, true);
    let b = run(SchedulerKind::Heap, 12, 77, 300_000, 4, true);
    assert_eq!(a, b);
    assert!(a.stats.delivered > 100, "workload should be non-trivial");
    assert!(a.stats.crashes > 0 && a.stats.duplicated > 0);
}

#[test]
fn wheel_matches_heap_beyond_the_wheel_horizon() {
    let _obs = pds2_obs::test_lock();
    // Timers alone, but spanning > 2^36 µs (~19 h) so every level and
    // the far-future overflow bucket participate.
    struct SparseTimers {
        fired: Vec<(SimTime, u64)>,
    }
    impl Node for SparseTimers {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            for k in 0..12u64 {
                // 1 µs .. ~38 h, geometric spacing.
                ctx.set_timer(1u64 << (2 * k + 15), k);
            }
            ctx.set_timer(1, 99);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: u64) {
            self.fired.push((ctx.now, tag));
            if tag == 99 && self.fired.len() < 40 {
                ctx.set_timer(1u64 << 37, 99); // repeatedly beyond horizon
            }
        }
    }
    let run = |kind| {
        let nodes = (0..3).map(|_| SparseTimers { fired: Vec::new() }).collect();
        let mut sim = Simulator::with_scheduler(nodes, LinkModel::instant(), 5, kind);
        let processed = sim.run_until(u64::MAX);
        let fired: Vec<Vec<(SimTime, u64)>> = sim.nodes().map(|n| n.fired.clone()).collect();
        (processed, sim.now(), fired)
    };
    let wheel = run(SchedulerKind::Wheel);
    let heap = run(SchedulerKind::Heap);
    assert_eq!(wheel, heap);
    assert!(wheel.1 > 1 << 37, "run must cross the wheel horizon");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random workload shapes: any (n, seed, horizon, segmentation,
    /// faults) must fingerprint identically under both schedulers.
    #[test]
    fn wheel_and_heap_fingerprints_agree(
        n in 2usize..14,
        seed in 0u64..1_000_000,
        horizon_us in 20_000u64..400_000,
        segments in 1u64..6,
        with_faults in any::<bool>(),
    ) {
        let _obs = pds2_obs::test_lock();
        let a = run(SchedulerKind::Wheel, n, seed, horizon_us, segments, with_faults);
        let b = run(SchedulerKind::Heap, n, seed, horizon_us, segments, with_faults);
        prop_assert_eq!(a, b);
    }
}
