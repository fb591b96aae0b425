//! The deterministic discrete-event simulator.
//!
//! Protocol logic is written against the [`Node`] trait; the simulator owns
//! all node instances, a global virtual clock in microseconds and an event
//! queue. Determinism: a seeded RNG drives every random choice, and ties in
//! the queue break on a monotone sequence number.

use crate::fault::{FaultPlan, FaultState, SendVerdict};
use crate::link::LinkModel;
use crate::sched::{EventQueue, SchedulerKind};
use pds2_obs::{Stamp, TraceCtx, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of a node in the simulation.
pub type NodeId = usize;

/// One simulated microsecond-resolution timestamp.
pub type SimTime = u64;

/// A protocol participant.
pub trait Node {
    /// Message type exchanged by this protocol.
    type Msg: Clone;

    /// Called once when the simulation starts (schedule initial timers
    /// here).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: u64);

    /// Wire size of a message in bytes (drives serialization delay and
    /// traffic accounting).
    fn msg_size(msg: &Self::Msg) -> u64 {
        let _ = msg;
        64
    }

    /// Coarse message-type tag used by [`crate::fault::TypedDrop`]
    /// censorship and the `net/deliver` span. Protocols with a single
    /// message type can keep the default.
    fn msg_kind(msg: &Self::Msg) -> u8 {
        let _ = msg;
        0
    }

    /// Content fingerprint carried by the `net/deliver` span, and so
    /// folded into the trace digest. Override with a real digest of the
    /// payload so a golden digest detects silent content changes, not
    /// just shape changes.
    fn msg_digest(msg: &Self::Msg) -> u64 {
        Self::msg_size(msg)
    }

    /// Produces an in-flight-corrupted version of `msg` for byzantine
    /// link faults. `None` (the default) means corruption destroys the
    /// message entirely — appropriate when any flipped bit would fail
    /// decoding anyway.
    fn corrupt_msg(msg: &Self::Msg, rng: &mut StdRng) -> Option<Self::Msg> {
        let _ = (msg, rng);
        None
    }

    /// Called when a fault-plan crash takes this node down. Crash-stop
    /// semantics: wipe whatever state would not survive a process
    /// restart. The default loses nothing (fail-silent).
    fn on_crash(&mut self) {}

    /// Called when a fault-plan crash recovers. Re-arm timers and kick
    /// off resynchronisation here; the default does nothing.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Context handed to node callbacks: clock, RNG and outgoing actions.
pub struct Ctx<'a, M> {
    /// This node's id.
    pub id: NodeId,
    /// Current simulated time (µs).
    pub now: SimTime,
    /// Total number of nodes in the simulation.
    pub n_nodes: usize,
    rng: &'a mut StdRng,
    actions: Vec<Action<M>>,
    incoming: TraceCtx,
}

enum Action<M> {
    Send { to: NodeId, msg: M },
    Timer { delay_us: u64, tag: u64 },
}

impl<'a, M> Ctx<'a, M> {
    /// Sends a message (subject to link latency/loss and the recipient
    /// being online at delivery time). The causal context of the event
    /// being handled rides along in the envelope, so the receiver's
    /// spans link back to this delivery without any protocol changes.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Causal context this callback runs under: the delivery span of
    /// the message being handled, the simulator's root context for
    /// start/timer/recover callbacks, or [`TraceCtx::NONE`] when
    /// tracing is off.
    pub fn incoming(&self) -> TraceCtx {
        self.incoming
    }

    /// Schedules `on_timer(tag)` after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, tag: u64) {
        self.actions.push(Action::Timer { delay_us, tag });
    }

    /// Seeded RNG for protocol randomness (peer sampling etc.).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Samples a uniformly random peer different from this node.
    pub fn random_peer(&mut self) -> Option<NodeId> {
        if self.n_nodes < 2 {
            return None;
        }
        loop {
            let p = self.rng.random_range(0..self.n_nodes);
            if p != self.id {
                return Some(p);
            }
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        size: u64,
        ctx: TraceCtx,
        sent_us: SimTime,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

/// Per-node online flags packed into a bitset, with the population
/// count maintained incrementally so [`Simulator::online_count`] is
/// O(1) at any fleet size.
struct OnlineSet {
    words: Vec<u64>,
    online: usize,
}

impl OnlineSet {
    fn all_online(n: usize) -> OnlineSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        OnlineSet { words, online: n }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    fn set(&mut self, i: usize, v: bool) {
        let (w, bit) = (i >> 6, 1u64 << (i & 63));
        let was = self.words[w] & bit != 0;
        if was == v {
            return;
        }
        if v {
            self.words[w] |= bit;
            self.online += 1;
        } else {
            self.words[w] &= !bit;
            self.online -= 1;
        }
    }

    #[inline]
    fn count(&self) -> usize {
        self.online
    }
}

/// Traffic and liveness statistics: the one tally of what the simulator
/// did to each message, timer and node. The `net.*` counters are
/// published from it, not counted beside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to an online node.
    pub delivered: u64,
    /// Messages lost to random link loss.
    pub dropped_loss: u64,
    /// Messages addressed to an offline node.
    pub dropped_offline: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Messages destroyed by an active partition (at send or delivery).
    pub dropped_partition: u64,
    /// Messages destroyed by byzantine drops / typed censorship /
    /// unrepresentable corruption.
    pub dropped_fault: u64,
    /// Messages corrupted in flight and still delivered.
    pub corrupted: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages delayed by reorder faults.
    pub reordered: u64,
    /// Fault-plan crashes executed.
    pub crashes: u64,
    /// Fault-plan recoveries executed.
    pub recoveries: u64,
}

/// The discrete-event simulator.
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    online: OnlineSet,
    queue: EventQueue<EventKind<N::Msg>>,
    now: SimTime,
    seq: u64,
    link: LinkModel,
    rng: StdRng,
    stats: NetStats,
    /// `stats` as of the last [`Simulator::publish_counters`].
    published: NetStats,
    started: bool,
    fault: Option<FaultState>,
    root_ctx: TraceCtx,
}

impl<N: Node> Simulator<N> {
    /// Creates a simulator over `nodes` with the given link model and
    /// seed, on the timing wheel.
    pub fn new(nodes: Vec<N>, link: LinkModel, seed: u64) -> Self {
        Simulator::with_scheduler(nodes, link, seed, SchedulerKind::Wheel)
    }

    /// Creates a simulator with an explicit scheduler — the differential
    /// tests and `bench_micro` drive both kinds side by side.
    pub fn with_scheduler(
        nodes: Vec<N>,
        link: LinkModel,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> Self {
        let n = nodes.len();
        Simulator {
            nodes,
            online: OnlineSet::all_online(n),
            queue: EventQueue::new(scheduler),
            now: 0,
            seq: 0,
            link,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            published: NetStats::default(),
            started: false,
            fault: None,
            root_ctx: TraceCtx::NONE,
        }
    }

    /// Which event scheduler backs this simulator.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Lifetime overflow-cascade count of the backing timing wheel
    /// (0 under the heap oracle).
    pub fn sched_cascades(&self) -> u64 {
        self.queue.cascades()
    }

    /// Sets the causal root context: spontaneous node activity
    /// (`on_start`, timers, recovery) and the sends it produces join
    /// this trace. Mint one with `pds2_obs::new_trace` at experiment
    /// start; deliveries then chain their own child spans off it.
    pub fn set_root_ctx(&mut self, ctx: TraceCtx) {
        self.root_ctx = ctx;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Immutable access to a node's state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Mutable access to a node's state (for experiment instrumentation).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Whether a node is currently online.
    pub fn is_online(&self, id: NodeId) -> bool {
        self.online.get(id)
    }

    /// Number of currently online nodes (O(1): the count is maintained
    /// on every `Crash`/`Recover` transition).
    pub fn online_count(&self) -> usize {
        self.online.count()
    }

    /// Installs a seeded [`FaultPlan`]: schedules its crash/recovery
    /// events and arms partitions, byzantine links and typed drops for
    /// every subsequent send. A crash is the only way a node goes
    /// offline. Fault randomness comes from the plan's own seed, so the
    /// protocol RNG stream is unchanged by installing a plan. A second
    /// plan adds its faults to the first's (a crash it dates behind the
    /// clock fires on the next event) and keeps the first's fault RNG.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for crash in &plan.crashes {
            self.push(crash.at, EventKind::Crash { node: crash.node });
            if let Some(recover_at) = crash.recover_at {
                self.push(recover_at, EventKind::Recover { node: crash.node });
            }
        }
        match &mut self.fault {
            Some(state) => state.extend(plan),
            None => self.fault = Some(FaultState::new(plan)),
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    /// Writes the row of a message the network destroyed, mangled,
    /// copied or delayed. The tally is the `self.stats` line beside each
    /// call; [`Simulator::publish_counters`] derives the counter from it.
    fn fate_row(
        &self,
        name: &'static str,
        ctx: TraceCtx,
        (from, to): (NodeId, NodeId),
        extra: Option<(&'static str, u64)>,
    ) {
        if pds2_obs::enabled() {
            let mut fields = vec![("from", Value::from(from)), ("to", Value::from(to))];
            fields.extend(extra.map(|(key, v)| (key, Value::from(v))));
            pds2_obs::emit("net", name, Stamp::Sim(self.now), ctx, fields);
        }
    }

    /// Adds what `stats` gained since the last call to the `net.*`
    /// counters, so each counter is its `NetStats` field summed over
    /// every simulator of the process, as of their last `run_until`.
    fn publish_counters(&mut self) {
        let (now, was) = (
            self.stats,
            std::mem::replace(&mut self.published, self.stats),
        );
        pds2_obs::counter!("net.sent").add(now.sent - was.sent);
        pds2_obs::counter!("net.delivered").add(now.delivered - was.delivered);
        pds2_obs::counter!("net.dropped_loss").add(now.dropped_loss - was.dropped_loss);
        pds2_obs::counter!("net.dropped_offline").add(now.dropped_offline - was.dropped_offline);
        pds2_obs::counter!("net.bytes_delivered").add(now.bytes_delivered - was.bytes_delivered);
        pds2_obs::counter!("net.timers_fired").add(now.timers_fired - was.timers_fired);
        pds2_obs::counter!("net.dropped_partition")
            .add(now.dropped_partition - was.dropped_partition);
        pds2_obs::counter!("net.dropped_fault").add(now.dropped_fault - was.dropped_fault);
        pds2_obs::counter!("net.corrupted").add(now.corrupted - was.corrupted);
        pds2_obs::counter!("net.duplicated").add(now.duplicated - was.duplicated);
        pds2_obs::counter!("net.reordered").add(now.reordered - was.reordered);
        pds2_obs::counter!("net.crashes").add(now.crashes - was.crashes);
        pds2_obs::counter!("net.recoveries").add(now.recoveries - was.recoveries);
    }

    /// Carries out what a callback asked for; every message it sent
    /// travels under `ctx`, the context the callback ran under.
    fn dispatch_actions(&mut self, origin: NodeId, ctx: TraceCtx, actions: Vec<Action<N::Msg>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    self.stats.sent += 1;
                    // Fault layer first (dedicated RNG, deterministic
                    // event order), then the benign link model — so the
                    // protocol RNG stream is identical with and without
                    // an installed plan.
                    let link = (origin, to);
                    let mut msg = msg;
                    let mut extra_delay_us = 0;
                    let mut duplicate_after_us = None;
                    if let Some(fault) = &mut self.fault {
                        let kind = N::msg_kind(&msg);
                        let fate = fault.judge_send(origin, to, kind, self.now);
                        let mut verdict = fate.verdict;
                        if verdict == SendVerdict::DeliverCorrupted {
                            // Corruption the protocol cannot even represent
                            // destroys the frame on the wire.
                            match N::corrupt_msg(&msg, fault.rng_mut()) {
                                Some(mangled) => msg = mangled,
                                None => verdict = SendVerdict::DropFault,
                            }
                        }
                        let kind = Some(("kind", kind as u64));
                        match verdict {
                            SendVerdict::DropPartition => {
                                self.stats.dropped_partition += 1;
                                self.fate_row("drop.partition", ctx, link, kind);
                                continue;
                            }
                            SendVerdict::DropFault => {
                                self.stats.dropped_fault += 1;
                                self.fate_row("drop.censor", ctx, link, kind);
                                continue;
                            }
                            SendVerdict::DeliverCorrupted => {
                                self.stats.corrupted += 1;
                                self.fate_row("corrupt", ctx, link, kind);
                            }
                            SendVerdict::Deliver => {}
                        }
                        if fate.extra_delay_us > 0 {
                            self.stats.reordered += 1;
                            let extra = Some(("extra_delay_us", fate.extra_delay_us));
                            self.fate_row("reorder", ctx, link, extra);
                            extra_delay_us = fate.extra_delay_us;
                        }
                        duplicate_after_us = fate.duplicate_after_us;
                    }
                    if self.link.drops(&mut self.rng) {
                        self.stats.dropped_loss += 1;
                        self.fate_row("drop.loss", ctx, link, None);
                        continue;
                    }
                    let size = N::msg_size(&msg);
                    let delay = self.link.delay_us(&mut self.rng, origin, to, size);
                    let at = self.now + delay + extra_delay_us;
                    let sent_us = self.now;
                    let deliver = move |msg| EventKind::Deliver {
                        from: origin,
                        to,
                        msg,
                        size,
                        ctx,
                        sent_us,
                    };
                    if let Some(after_us) = duplicate_after_us {
                        self.stats.duplicated += 1;
                        self.fate_row("duplicate", ctx, link, None);
                        self.push(at + after_us.max(1), deliver(msg.clone()));
                    }
                    self.push(at, deliver(msg));
                }
                Action::Timer { delay_us, tag } => {
                    let at = self.now + delay_us;
                    pds2_obs::counter!("net.timers_set").inc();
                    self.push(at, EventKind::Timer { node: origin, tag });
                }
            }
        }
    }

    fn call_node<F>(&mut self, id: NodeId, incoming: TraceCtx, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg>),
    {
        let mut ctx = Ctx {
            id,
            now: self.now,
            n_nodes: self.nodes.len(),
            rng: &mut self.rng,
            actions: Vec::new(),
            incoming,
        };
        f(&mut self.nodes[id], &mut ctx);
        let actions = ctx.actions;
        self.dispatch_actions(id, incoming, actions);
    }

    /// Runs `on_start` on every node (idempotent).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            self.call_node(id, self.root_ctx, |n, ctx| n.on_start(ctx));
        }
    }

    /// Processes events until the queue is empty or `deadline_us` passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline_us: SimTime) -> u64 {
        self.start();
        let span = pds2_obs::span(
            "net",
            "run",
            Stamp::Sim(self.now),
            TraceCtx::NONE,
            Vec::new(),
        );
        let cascades_before = self.queue.cascades();
        let mut processed = 0;
        while self.queue.peek_time().is_some_and(|t| t <= deadline_us) {
            // `peek_time` has just seen this event.
            let Some((time, _seq, kind)) = self.queue.pop() else {
                break;
            };
            self.now = time;
            processed += 1;
            match kind {
                EventKind::Timer { node, tag } => {
                    // Timers on crashed nodes are counted and skipped;
                    // protocols re-arm in `on_recover`.
                    self.stats.timers_fired += 1;
                    if self.online.get(node) {
                        self.call_node(node, self.root_ctx, |n, ctx| n.on_timer(ctx, tag));
                    }
                }
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    size,
                    ctx,
                    sent_us,
                } => {
                    // A partition that split while this message was in
                    // flight destroys it at the boundary.
                    if self
                        .fault
                        .as_ref()
                        .is_some_and(|f| f.severed_at_delivery(from, to, self.now))
                    {
                        self.stats.dropped_partition += 1;
                        self.fate_row("drop.partition", ctx, (from, to), None);
                    } else if self.online.get(to) {
                        self.stats.delivered += 1;
                        self.stats.bytes_delivered += size;
                        // Only an active capture reads the kind and the
                        // digest (for a `SyncMsg` an encoding and a SHA-256
                        // of the whole message).
                        let (kind, digest) = if pds2_obs::enabled() {
                            (N::msg_kind(&msg), N::msg_digest(&msg))
                        } else {
                            (0, 0)
                        };
                        // One hop of the causal DAG: the delivery span is
                        // a child of the sender's context, and everything
                        // the handler does (sends, chain spans) chains
                        // off the span. Its fields say who sent what to
                        // whom, plus `sent_us` so `obs_report` can compute
                        // per-hop latency.
                        let span = pds2_obs::span(
                            "net",
                            "deliver",
                            Stamp::Sim(self.now),
                            ctx,
                            vec![
                                ("from", Value::from(from)),
                                ("to", Value::from(to)),
                                ("kind", Value::from(kind as u64)),
                                ("size", Value::from(size)),
                                ("digest", Value::from(digest)),
                                ("sent_us", Value::from(sent_us)),
                            ],
                        );
                        let incoming = if span.id() != 0 { span.ctx() } else { ctx };
                        self.call_node(to, incoming, |n, ctx| n.on_message(ctx, from, msg));
                        span.finish(Stamp::Sim(self.now), Vec::new());
                    } else {
                        self.stats.dropped_offline += 1;
                        self.fate_row("drop.offline", ctx, (from, to), None);
                    }
                }
                EventKind::Crash { node } => {
                    self.stats.crashes += 1;
                    pds2_obs::event!(
                        "net", "crash", Stamp::Sim(self.now), TraceCtx::NONE, "node" => node,
                    );
                    self.online.set(node, false);
                    self.nodes[node].on_crash();
                }
                EventKind::Recover { node } => {
                    self.stats.recoveries += 1;
                    pds2_obs::event!(
                        "net", "recover", Stamp::Sim(self.now), TraceCtx::NONE, "node" => node,
                    );
                    self.online.set(node, true);
                    self.call_node(node, self.root_ctx, |n, ctx| n.on_recover(ctx));
                }
            }
        }
        self.publish_counters();
        pds2_obs::counter!("net.sched.events_processed").add(processed);
        let cascades = self.queue.cascades() - cascades_before;
        pds2_obs::counter!("net.sched.wheel_cascades").add(cascades);
        span.finish(
            Stamp::Sim(self.now),
            vec![
                ("events", Value::from(processed)),
                ("pending", Value::from(self.queue.len() as u64)),
            ],
        );
        processed
    }
}

#[cfg(test)]
mod tests {
    // Every test that runs a simulator takes `pds2_obs::test_lock()`:
    // the collector is process-global, so a run on another thread would
    // land in a digest this binary is comparing.

    use super::*;
    use crate::fault::{LinkEffect, LinkScope};
    use pds2_obs::{SinkKind, TraceReport};

    /// The capture of whatever `run` emits.
    fn traced(run: impl FnOnce()) -> TraceReport {
        let cap = pds2_obs::capture(SinkKind::Ring(usize::MAX));
        run();
        cap.finish()
    }

    /// Test protocol: a ping-pong counter. Node 0 starts; each node
    /// forwards `count+1` to a fixed next hop until TTL.
    struct Ring {
        next: NodeId,
        received: Vec<u64>,
        start: bool,
    }

    impl Node for Ring {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.start {
                ctx.send(self.next, 1);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            self.received.push(msg);
            if msg < 10 {
                ctx.send(self.next, msg + 1);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _tag: u64) {}

        fn msg_size(_msg: &u64) -> u64 {
            8
        }
    }

    fn ring(n: usize) -> Vec<Ring> {
        (0..n)
            .map(|i| Ring {
                next: (i + 1) % n,
                received: Vec::new(),
                start: i == 0,
            })
            .collect()
    }

    #[test]
    fn messages_travel_the_ring() {
        let _obs = pds2_obs::test_lock();
        let mut sim = Simulator::new(ring(3), LinkModel::instant(), 1);
        sim.run_until(1_000_000);
        // 10 hops total: counts 1..=10 distributed around the ring.
        let total: usize = sim.nodes().map(|n| n.received.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(sim.stats().sent, 10);
        assert_eq!(sim.stats().delivered, 10);
        assert_eq!(sim.stats().bytes_delivered, 80);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let _obs = pds2_obs::test_lock();
        let run = |seed| {
            let mut sim = Simulator::new(ring(5), LinkModel::default(), seed);
            sim.run_until(10_000_000);
            (sim.now(), sim.stats())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn offline_nodes_drop_messages() {
        let _obs = pds2_obs::test_lock();
        let mut sim = Simulator::new(ring(3), LinkModel::instant(), 1);
        sim.install_fault_plan(FaultPlan::new(1).crash(1, 0, None));
        sim.run_until(1_000_000);
        // Node 0 sends to 1 which is down: chain stops immediately.
        assert_eq!(sim.stats().dropped_offline, 1);
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.online_count(), 2);
    }

    #[test]
    fn outage_with_recovery() {
        let _obs = pds2_obs::test_lock();
        let mut sim = Simulator::new(ring(2), LinkModel::instant(), 1);
        sim.install_fault_plan(FaultPlan::new(1).crash(1, 0, Some(500)));
        sim.run_until(400);
        assert!(!sim.is_online(1));
        sim.run_until(1_000);
        assert!(sim.is_online(1));
    }

    #[test]
    fn timers_fire() {
        let _obs = pds2_obs::test_lock();
        struct TimerNode {
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for TimerNode {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(100, 1);
                ctx.set_timer(50, 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: u64) {
                self.fired.push((ctx.now, tag));
            }
        }
        let mut sim = Simulator::new(
            vec![TimerNode { fired: Vec::new() }],
            LinkModel::instant(),
            1,
        );
        sim.run_until(1_000);
        assert_eq!(sim.node(0).fired, vec![(50, 2), (100, 1)]);
    }

    #[test]
    fn random_peer_excludes_self() {
        let _obs = pds2_obs::test_lock();
        struct P;
        impl Node for P {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                for _ in 0..100 {
                    let peer = ctx.random_peer().unwrap();
                    assert_ne!(peer, ctx.id);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: u64) {}
        }
        let mut sim = Simulator::new(vec![P, P, P], LinkModel::instant(), 3);
        sim.start();
    }

    /// Flood protocol for fault-layer tests: every node broadcasts a
    /// counter on a periodic timer and remembers the highest value seen.
    struct Flood {
        highest: u64,
        peers_seen: u32,
        sent: u64,
        crashes: u64,
        recoveries: u64,
    }

    impl Flood {
        fn new() -> Flood {
            Flood {
                highest: 0,
                peers_seen: 0,
                sent: 0,
                crashes: 0,
                recoveries: 0,
            }
        }
    }

    impl Node for Flood {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(100, 0);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.highest = self.highest.max(msg);
            self.peers_seen |= 1 << from;
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
            self.sent += 1;
            let value = self.sent * 1_000 + ctx.id as u64;
            for to in 0..ctx.n_nodes {
                if to != ctx.id {
                    ctx.send(to, value);
                }
            }
            ctx.set_timer(100, 0);
        }

        fn msg_size(_msg: &u64) -> u64 {
            8
        }

        fn msg_digest(msg: &u64) -> u64 {
            *msg
        }

        fn corrupt_msg(msg: &u64, rng: &mut StdRng) -> Option<u64> {
            Some(msg ^ (1 << rng.random_range(0..64)))
        }

        fn on_crash(&mut self) {
            self.crashes += 1;
            self.highest = 0;
        }

        fn on_recover(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.recoveries += 1;
            ctx.set_timer(100, 0);
        }
    }

    fn flood_sim(n: usize, seed: u64) -> Simulator<Flood> {
        Simulator::new(
            (0..n).map(|_| Flood::new()).collect(),
            LinkModel::instant(),
            seed,
        )
    }

    #[test]
    fn partition_severs_and_heals() {
        let _obs = pds2_obs::test_lock();
        let mut sim = flood_sim(4, 1);
        sim.install_fault_plan(FaultPlan::new(1).partition(0, 5_000, vec![vec![0, 1], vec![2, 3]]));
        sim.run_until(4_000);
        // During the split, traffic never crosses the islands {0,1} and
        // {2,3}: each node has only heard from its island peer.
        assert!(sim.stats().dropped_partition > 0);
        assert_eq!(sim.node(0).peers_seen, 0b0010);
        assert_eq!(sim.node(1).peers_seen, 0b0001);
        assert_eq!(sim.node(2).peers_seen, 0b1000);
        assert_eq!(sim.node(3).peers_seen, 0b0100);
        // After healing, traffic crosses again: everyone hears from every
        // peer.
        sim.run_until(10_000);
        for i in 0..4u32 {
            assert_eq!(sim.node(i as usize).peers_seen, 0b1111 & !(1 << i));
        }
    }

    #[test]
    fn crash_invokes_hooks_and_recovery_restarts() {
        let _obs = pds2_obs::test_lock();
        let mut sim = flood_sim(3, 2);
        sim.install_fault_plan(FaultPlan::new(2).crash(1, 1_000, Some(3_000)));
        sim.run_until(10_000);
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().recoveries, 1);
        assert_eq!(sim.node(1).crashes, 1);
        assert_eq!(sim.node(1).recoveries, 1);
        // The recovered node re-armed its broadcast timer and caught up.
        assert!(sim.node(1).highest > 0);
    }

    #[test]
    fn every_offline_node_is_a_plan_crash() {
        let _obs = pds2_obs::test_lock();
        let mut sim = flood_sim(24, 6);
        sim.install_fault_plan(FaultPlan::new(6).random_failures(24, 0.3, 8_000));
        for t in (1..=10).map(|k| k * 1_000) {
            sim.run_until(t);
            let offline = (0..24).filter(|&id| !sim.is_online(id)).count();
            assert_eq!(offline as u64, sim.stats().crashes, "at {t} us");
            assert_eq!(sim.online_count(), 24 - offline);
        }
        assert!(sim.stats().crashes > 0);
        assert_eq!(sim.stats().recoveries, 0, "random failures are permanent");
    }

    #[test]
    fn byzantine_corruption_and_duplication_are_counted() {
        let _obs = pds2_obs::test_lock();
        let mut sim = flood_sim(2, 3);
        sim.install_fault_plan(
            FaultPlan::new(3)
                .byzantine(
                    0,
                    100_000,
                    LinkScope::any(),
                    LinkEffect::Corrupt { probability: 0.5 },
                )
                .byzantine(
                    0,
                    100_000,
                    LinkScope::any(),
                    LinkEffect::Duplicate {
                        probability: 0.5,
                        extra_delay_us: 10,
                    },
                ),
        );
        sim.run_until(100_000);
        let s = sim.stats();
        assert!(s.corrupted > 0);
        assert!(s.duplicated > 0);
        // Duplicates arrive a little late, so a few may still be in
        // flight at the deadline.
        assert!(s.delivered >= s.sent - s.dropped_fault);
        assert!(s.delivered <= s.sent - s.dropped_fault + s.duplicated);
    }

    #[test]
    fn typed_drops_censor_only_matching_kind() {
        let _obs = pds2_obs::test_lock();
        // Flood uses kind 0 everywhere; censor kind 0 from node 0 only.
        let mut sim = flood_sim(3, 4);
        sim.install_fault_plan(FaultPlan::new(4).drop_kind(
            0,
            100_000,
            LinkScope::from_node(0),
            0,
            1.0,
        ));
        sim.run_until(10_000);
        // Node 0's broadcasts are all censored; 1 and 2 still exchange.
        assert!(sim.stats().dropped_fault > 0);
        assert!(!sim.node(1).highest.is_multiple_of(1_000));
        assert!(!sim.node(2).highest.is_multiple_of(1_000));
    }

    #[test]
    fn trace_hash_is_reproducible_and_fault_sensitive() {
        let _obs = pds2_obs::test_lock();
        let run = |plan: Option<FaultPlan>| {
            let mut sim = flood_sim(3, 9);
            if let Some(p) = plan {
                sim.install_fault_plan(p);
            }
            traced(|| {
                sim.run_until(20_000);
            })
            .digest
        };
        let clean_a = run(None);
        let clean_b = run(None);
        assert_eq!(clean_a, clean_b, "same seed must give same trace");
        let faulty = run(Some(FaultPlan::new(9).crash(2, 5_000, None)));
        assert_ne!(clean_a, faulty, "faults must change the trace");
    }

    #[test]
    fn installing_a_plan_does_not_perturb_protocol_rng() {
        let _obs = pds2_obs::test_lock();
        // A no-op plan (faults outside the horizon) must leave every
        // delivery byte-identical to a plan-free run. (The digest moves:
        // the `net/run` span counts the plan's crash as pending.)
        let run = |install: bool| {
            let mut sim = flood_sim(3, 11);
            if install {
                sim.install_fault_plan(FaultPlan::new(999).crash(0, 1_000_000, None).byzantine(
                    1_000_000,
                    2_000_000,
                    LinkScope::any(),
                    LinkEffect::Drop { probability: 1.0 },
                ));
            }
            let report = traced(|| {
                sim.run_until(20_000);
            });
            let deliveries = report.entries.into_iter().filter(|e| e.name == "deliver");
            deliveries.collect::<Vec<_>>()
        };
        let clean = run(false);
        assert!(!clean.is_empty());
        assert_eq!(clean, run(true));
    }

    #[test]
    fn lossy_links_drop_statistically() {
        let _obs = pds2_obs::test_lock();
        // Broadcast-ish: node 0 sends 1000 one-off messages via timers.
        struct Spammer {
            n: u32,
        }
        impl Node for Spammer {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id == 0 {
                    for _ in 0..self.n {
                        ctx.send(1, ());
                    }
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: u64) {}
        }
        let link = LinkModel {
            drop_probability: 0.5,
            ..LinkModel::instant()
        };
        let mut sim = Simulator::new(vec![Spammer { n: 1000 }, Spammer { n: 0 }], link, 5);
        sim.run_until(10_000_000);
        let s = sim.stats();
        assert_eq!(s.sent, 1000);
        assert!((300..700).contains(&s.dropped_loss), "{}", s.dropped_loss);
        assert_eq!(s.delivered + s.dropped_loss, 1000);
    }
}
