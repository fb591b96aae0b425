//! E19, the simulated-time half (DESIGN.md §5h): a 100k-node
//! gossip-learning run driven to completion, and a marketplace
//! inclusion-latency SLO ramp that finds the offered load where the p99
//! submit→inclusion latency breaks the SLO. Everything it reports is a
//! function of the seeds, not of the host; what the scheduler costs in
//! wall-clock time is `bench_micro`'s `net.sched.*` rows.
//!
//! Before the ramp the marketplace scenario is checked for bit-identical
//! traces, inclusion latencies and alert instants under both schedulers —
//! a divergence aborts the run.
//!
//! Writes `scale_knee_report.txt` (the obs critical path at the SLO
//! knee) in the working directory.
//!
//! `cargo run --release -p pds2-bench --bin exp_scale`
//! `cargo run --release -p pds2-bench --bin exp_scale -- --smoke`
//!   (CI mode: smaller fleets, same assertions)

use parking_lot::Mutex;
use pds2_bench::print_table;
use pds2_learning::gossip::{run_gossip_experiment, sparse_shards, GossipConfig, GossipRun};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{
    ArrivalGen, ArrivalPattern, ChurnModel, Ctx, FaultPlan, LinkModel, Node, NodeId, SchedulerKind,
    SimTime, Simulator, Topology,
};
use pds2_obs as obs;
use pds2_obs::report::TraceAnalysis;
use pds2_obs::window::{SloMonitor, SloRule};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Gossip learning at fleet scale, driven to completion.
// ---------------------------------------------------------------------

struct GossipRow {
    wall_s: f64,
    models_transferred: u64,
    online_nodes: usize,
    accuracy: f64,
}

fn gossip_run(n: usize, horizon_us: u64) -> GossipRun {
    let cfg = GossipConfig {
        period_us: 400_000,
        ..Default::default()
    };
    let link = LinkModel::regional(Topology::five_continents(19).with_slowdown_spread(1024, 2048));
    let churn = ChurnModel {
        horizon_us,
        mean_uptime_us: horizon_us / 2,
        mean_downtime_us: horizon_us / 8,
        churn_fraction_x1024: 50, // ~5 % of the fleet churns
    };
    GossipRun {
        eval_sample: 64,
        faults: FaultPlan::new(19).churn(&churn, n),
        ..GossipRun::new(cfg, link, 19, &[horizon_us / 2, horizon_us])
    }
}

fn gossip_at_scale(n: usize, holders: usize, horizon_us: u64) -> GossipRow {
    let data = gaussian_blobs(1200, 3, 0.7, 1);
    let (train, test) = data.split(0.25, 2);
    let run = gossip_run(n, horizon_us);
    let t = Instant::now();
    let shards = sparse_shards(&train, n, holders, 19);
    let out = run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3));
    let wall_s = t.elapsed().as_secs_f64();
    assert!(
        out.online_nodes > n * 8 / 10,
        "fleet should mostly survive churn ({} of {n} online)",
        out.online_nodes
    );
    assert!(out.models_transferred > n as u64, "gossip must spread");
    GossipRow {
        wall_s,
        models_transferred: out.models_transferred,
        online_nodes: out.online_nodes,
        accuracy: *out.accuracy_curve.last().unwrap(),
    }
}

// ---------------------------------------------------------------------
// Marketplace inclusion-latency SLO ramp.
// ---------------------------------------------------------------------

/// Validator block interval (µs).
const BLOCK_INTERVAL_US: u64 = 250_000;
/// Transactions a validator includes per block.
const BLOCK_CAP: usize = 64;
/// Submit→inclusion p99 SLO (µs): six block intervals.
const SLO_US: u64 = 1_500_000;

const T_SUBMIT: u64 = 1;
const T_BLOCK: u64 = 2;

#[derive(Clone)]
enum MarketMsg {
    /// A client transaction: submitter and submit time.
    Submit { client: NodeId, at: SimTime },
}

/// One marketplace participant: ids below `validators` run the block
/// timer and FIFO-include pending transactions up to [`BLOCK_CAP`];
/// the rest submit transactions on an [`ArrivalGen`]-driven timer to a
/// hash-chosen validator.
struct MarketNode {
    validators: usize,
    gen: ArrivalGen,
    submitted: u64,
    pending: VecDeque<SimTime>,
    latencies: Vec<u64>,
    /// Shared burn-rate monitor fed at the inclusion point. `on_timer`
    /// runs in the serial simulator loop, so the lock is uncontended
    /// and the observation order is the deterministic event order.
    slo: Option<Arc<Mutex<SloMonitor>>>,
}

fn mixh(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Node for MarketNode {
    type Msg = MarketMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, MarketMsg>) {
        if ctx.id < self.validators {
            // Stagger block boundaries a little so validators do not
            // all fire on the same microsecond.
            ctx.set_timer(BLOCK_INTERVAL_US + ctx.id as u64 % 977, T_BLOCK);
        } else {
            ctx.set_timer(self.gen.next_delay_us(ctx.id, 0, 0), T_SUBMIT);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, MarketMsg>, _from: NodeId, msg: MarketMsg) {
        let MarketMsg::Submit { at, .. } = msg;
        self.pending.push_back(at);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MarketMsg>, tag: u64) {
        if tag == T_BLOCK {
            for _ in 0..self.pending.len().min(BLOCK_CAP) {
                let at = self.pending.pop_front().unwrap();
                let lat = ctx.now - at;
                if let Some(mon) = &self.slo {
                    mon.lock().observe(ctx.now, lat);
                }
                self.latencies.push(lat);
            }
            ctx.set_timer(BLOCK_INTERVAL_US, T_BLOCK);
        } else {
            self.submitted += 1;
            let v = (mixh(ctx.id as u64 ^ self.submitted) % self.validators as u64) as usize;
            ctx.send(
                v,
                MarketMsg::Submit {
                    client: ctx.id,
                    at: ctx.now,
                },
            );
            ctx.set_timer(
                self.gen.next_delay_us(ctx.id, self.submitted, ctx.now),
                T_SUBMIT,
            );
        }
    }

    fn msg_size(_msg: &MarketMsg) -> u64 {
        256
    }

    fn msg_digest(msg: &MarketMsg) -> u64 {
        let MarketMsg::Submit { client, at } = msg;
        mixh(*client as u64 ^ at.rotate_left(17))
    }
}

struct MarketOutcome {
    /// Transactions the clients sent (some still in flight or queued).
    submitted: u64,
    included: u64,
    p99_us: u64,
    max_backlog: usize,
}

/// Mean submit interval (µs) at which the clients' steady-state rate is
/// `load_x100` percent of the configured inclusion ceiling
/// (`validators × BLOCK_CAP` per block interval). What a run actually
/// offers is less: a client's first submission lands half to one and a
/// half mean intervals in, a third or more of the horizon at these
/// sizes. The ramp therefore reports the rates it measured.
fn interval_for_load(clients: usize, validators: usize, load_x100: u64) -> u64 {
    (clients as u64 * BLOCK_INTERVAL_US * 100) / (validators as u64 * BLOCK_CAP as u64 * load_x100)
}

fn market_sim(
    n: usize,
    validators: usize,
    mean_interval_us: u64,
    pattern: ArrivalPattern,
    kind: SchedulerKind,
    slo: Option<Arc<Mutex<SloMonitor>>>,
) -> Simulator<MarketNode> {
    let gen = ArrivalGen {
        seed: 0xC0,
        mean_interval_us,
        pattern,
    };
    let nodes = (0..n)
        .map(|_| MarketNode {
            validators,
            gen,
            submitted: 0,
            pending: VecDeque::new(),
            latencies: Vec::new(),
            slo: slo.clone(),
        })
        .collect();
    let topo = Topology::five_continents(0xC0).with_slowdown_spread(1024, 2048);
    Simulator::with_scheduler(nodes, LinkModel::regional(topo), 0xC0, kind)
}

fn market_outcome(sim: &Simulator<MarketNode>, validators: usize) -> MarketOutcome {
    let mut latencies: Vec<u64> = Vec::new();
    let mut backlog = 0;
    for v in sim.nodes().take(validators) {
        latencies.extend_from_slice(&v.latencies);
        backlog = backlog.max(v.pending.len());
    }
    latencies.sort_unstable();
    let p99 = if latencies.is_empty() {
        0
    } else {
        latencies[latencies.len() * 99 / 100]
    };
    MarketOutcome {
        submitted: sim.nodes().skip(validators).map(|c| c.submitted).sum(),
        included: latencies.len() as u64,
        p99_us: p99,
        max_backlog: backlog,
    }
}

/// The live burn-rate rule the ramp runs under: the SLO objective with
/// a 1% error budget, fired at 2× budget burn over eight block
/// intervals (fast) *and* twenty-four (noise suppression). Sustained
/// overload pushes the windowed bad fraction far past 2% while a
/// stable queue stays under it, so the alert flips exactly at the
/// capacity knee — online, without sorting the full latency vector.
fn ramp_rule() -> SloRule {
    SloRule {
        name: "market.inclusion_latency",
        threshold: SLO_US,
        budget_bp: 100,
        short_window_us: 8 * BLOCK_INTERVAL_US,
        long_window_us: 24 * BLOCK_INTERVAL_US,
        fire_burn_x100: 200,
        min_count: 200,
    }
}

/// One ramp run: its outcome and the instant the live monitor first
/// fired, if it did.
fn market_run(
    n: usize,
    load_x100: u64,
    horizon_us: u64,
    pattern: ArrivalPattern,
    kind: SchedulerKind,
) -> (MarketOutcome, Option<u64>) {
    let validators = (n / 1000).max(4);
    let interval = interval_for_load(n - validators, validators, load_x100);
    let mon = Arc::new(Mutex::new(SloMonitor::new(ramp_rule())));
    let mut sim = market_sim(n, validators, interval, pattern, kind, Some(mon.clone()));
    sim.run_until(horizon_us);
    let out = market_outcome(&sim, validators);
    let alert_at = mon.lock().first_fired_at();
    (out, alert_at)
}

/// Gate: the marketplace scenario is scheduler-invariant down to every
/// recorded inclusion latency.
fn assert_market_determinism(n: usize, horizon_us: u64) {
    let run = |kind| {
        let validators = (n / 1000).max(4);
        let interval = interval_for_load(n - validators, validators, 100);
        let mon = Arc::new(Mutex::new(SloMonitor::new(ramp_rule())));
        let mut sim = market_sim(
            n,
            validators,
            interval,
            ArrivalPattern::Constant,
            kind,
            Some(mon.clone()),
        );
        let cap = obs::capture(obs::SinkKind::Null);
        sim.run_until(horizon_us);
        let trace = cap.finish().digest;
        let lat: Vec<Vec<u64>> = sim
            .nodes()
            .take(validators)
            .map(|v| v.latencies.clone())
            .collect();
        let mon = mon.lock();
        let alert = (mon.fired_count(), mon.first_fired_at());
        (trace, sim.stats(), lat, alert)
    };
    let a = run(SchedulerKind::Wheel);
    let b = run(SchedulerKind::Heap);
    assert_eq!(a.0, b.0, "market trace diverged between schedulers");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "inclusion latencies diverged between schedulers");
    assert_eq!(
        a.3, b.3,
        "burn-rate alert instants diverged between schedulers"
    );
    assert!(a.2.iter().map(Vec::len).sum::<usize>() > 0);
}

/// The traced knee re-run: a reduced-scale flash-crowd scenario at the
/// knee load, captured through the JSONL sink and rendered into the
/// archived critical-path report.
fn knee_report(n: usize, load_x100: u64, horizon_us: u64) -> (String, MarketOutcome, Option<u64>) {
    let validators = (n / 1000).max(4);
    let interval = interval_for_load(n - validators, validators, load_x100);
    let pattern = ArrivalPattern::FlashCrowd {
        at_us: horizon_us / 3,
        surge_x1024: 1024, // 2x baseline at the spike
        decay_us: horizon_us / 3,
    };
    let path = std::path::PathBuf::from("trace_scale_knee.jsonl");
    let cap = obs::capture(obs::SinkKind::Jsonl(path.clone()));
    // The live monitor rides along so its `slo.alert.fire` transition
    // is part of the captured (and digested) trace.
    let mon = Arc::new(Mutex::new(SloMonitor::new(ramp_rule())));
    let mut sim = market_sim(
        n,
        validators,
        interval,
        pattern,
        SchedulerKind::Wheel,
        Some(mon.clone()),
    );
    let root = obs::new_trace(
        "bench",
        "slo_ramp",
        obs::Stamp::Sim(0),
        vec![
            ("nodes", obs::Value::from(n as u64)),
            ("load_pct", obs::Value::from(load_x100)),
        ],
    );
    if root.id() != 0 {
        // Deliveries chain causal spans off this root, so the report's
        // critical path follows actual submit→inclusion hops.
        sim.set_root_ctx(root.ctx());
    }
    // Segmented run so the report shows the net/run span sequence with
    // per-segment event and backlog counts.
    let segments = 12;
    for s in 1..=segments {
        sim.run_until(horizon_us * s / segments);
    }
    root.finish(obs::Stamp::Sim(sim.now()), Vec::new());
    cap.finish();
    let out = market_outcome(&sim, validators);
    let body = std::fs::read_to_string(&path).expect("jsonl capture written");
    let analysis = TraceAnalysis::from_jsonl(&body);
    let _ = std::fs::remove_file(&path);
    let fired_at = mon.lock().first_fired_at();
    (analysis.render_text(), out, fired_at)
}

// ---------------------------------------------------------------------

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let _g = obs::test_lock();

    println!("scale: market scenario, wheel vs heap ...");
    assert_market_determinism(if smoke { 1_000 } else { 2_000 }, 6_000_000);
    println!("  trace, inclusion latencies and alert instants bit-identical\n");

    // The 100k-node marketplace fleet learning to completion.
    let (gn, gh, ghor) = if smoke {
        (2_000, 40, 3_000_000)
    } else {
        (100_000, 500, 6_000_000)
    };
    println!("gossip at scale: {gn} nodes, {gh} data holders ...");
    let gossip = gossip_at_scale(gn, gh, ghor);
    println!(
        "  wall {:.1} s   models {}   online {}   accuracy {:.4}",
        gossip.wall_s, gossip.models_transferred, gossip.online_nodes, gossip.accuracy
    );
    if !smoke {
        assert!(
            gossip.accuracy > 0.7,
            "scale fleet must learn (accuracy {:.3})",
            gossip.accuracy
        );
    }

    // Offered-load ramp to the SLO knee.
    let (mn, mhor) = if smoke {
        (1_000, 8_000_000)
    } else {
        (100_000, 12_000_000)
    };
    let validators = (mn / 1000).max(4);
    let ceiling_tps = validators as f64 * BLOCK_CAP as f64 * 1e6 / BLOCK_INTERVAL_US as f64;
    println!(
        "\nslo ramp: {mn} nodes, {validators} validators, configured ceiling {ceiling_tps:.0} tx/s \
         ({validators} x {BLOCK_CAP} / {} ms), horizon {} s, slo p99 ≤ {} ms ...",
        BLOCK_INTERVAL_US / 1000,
        mhor / 1_000_000,
        SLO_US / 1000
    );
    let per_s = |txs: u64| txs as f64 * 1e6 / mhor as f64;
    let points: Vec<(u64, MarketOutcome, Option<u64>)> = [50, 80, 100, 120, 150]
        .into_iter()
        .map(|load| {
            let (out, alert_at) = market_run(
                mn,
                load,
                mhor,
                ArrivalPattern::Constant,
                SchedulerKind::Wheel,
            );
            (load, out, alert_at)
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(load, out, alert_at)| {
            vec![
                format!("{load}%"),
                format!("{:.0}", per_s(out.submitted)),
                format!("{:.0}", per_s(out.included)),
                out.included.to_string(),
                out.p99_us.to_string(),
                out.max_backlog.to_string(),
                if out.p99_us <= SLO_US {
                    "ok"
                } else {
                    "SLO BREACH"
                }
                .to_string(),
                alert_at.map_or("-".to_string(), |at| at.to_string()),
            ]
        })
        .collect();
    print_table(
        &[
            "of ceiling",
            "submitted tx/s",
            "included tx/s",
            "included",
            "p99 us",
            "max backlog",
            "slo",
            "alert at us",
        ],
        &rows,
    );
    let at_knee = points
        .iter()
        .position(|(_, out, _)| out.p99_us > SLO_US)
        .expect("ramp must cross the SLO knee");
    assert!(at_knee > 0, "lowest load must meet the SLO");
    // The live multi-window monitor must find the same knee as the
    // post-hoc full-sort p99 scan — online detection costs nothing in
    // fidelity.
    assert_eq!(
        points
            .iter()
            .position(|(_, _, alert_at)| alert_at.is_some()),
        Some(at_knee),
        "burn-rate alert knee disagrees with the post-hoc p99 scan"
    );
    let knee = points[at_knee].0;
    let (below, breaking, top) = (
        &points[at_knee - 1].1,
        &points[at_knee].1,
        &points[points.len() - 1].1,
    );
    println!(
        "  knee {knee}%: between {:.0} and {:.0} tx/s of measured inclusion; \
         sustained at saturation {:.0} tx/s, {:.0}% of the configured ceiling",
        per_s(below.included),
        per_s(breaking.included),
        per_s(top.included),
        per_s(top.included) / ceiling_tps * 100.0
    );

    // Traced re-run at the knee, reduced scale so the JSONL capture and
    // report stay small.
    let (kn, khor) = if smoke {
        (800, 6_000_000)
    } else {
        (5_000, 8_000_000)
    };
    let (report, knee_out, knee_alert_at) = knee_report(kn, knee, khor);
    let mut archived = format!(
        "SLO knee: {mn}-node ramp breaks p99 ≤ {} ms at {knee}% of the configured ceiling\n\
         ({ceiling_tps:.0} tx/s = {validators} validators x block cap {BLOCK_CAP} / {} ms blocks).\n\
         Measured over the {} s horizon: {:.0} tx/s submitted and {:.0} included at the knee,\n\
         {:.0} included one step below it (SLO met), {:.0} sustained at the top of the ramp.\n\
         Knee found online by the {} burn-rate alert (agrees with the\n\
         post-hoc p99 scan at every ramp point).\n\
         Traced flash-crowd re-run at {kn} nodes, knee load: included {}, p99 {:.1} ms,\n\
         max validator backlog {}, alert fired {}.\n\n",
        SLO_US / 1000,
        BLOCK_INTERVAL_US / 1000,
        mhor / 1_000_000,
        per_s(breaking.submitted),
        per_s(breaking.included),
        per_s(below.included),
        per_s(top.included),
        ramp_rule().name,
        knee_out.included,
        knee_out.p99_us as f64 / 1e3,
        knee_out.max_backlog,
        match knee_alert_at {
            Some(at) => format!("@ {:.1} s", at as f64 / 1e6),
            None => "never (flash crowd absorbed)".to_string(),
        },
    );
    archived.push_str(&report);
    std::fs::write("scale_knee_report.txt", &archived).expect("write scale_knee_report.txt");
    println!("\nwrote scale_knee_report.txt ({} bytes)", archived.len());
}
