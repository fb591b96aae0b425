//! Deterministic fault plans: the chaos-engineering substrate.
//!
//! A [`FaultPlan`] is a declarative, *seeded* description of everything
//! that goes wrong in a simulation run — network partitions that split
//! and heal, byzantine links that corrupt, duplicate or reorder traffic,
//! crash-stop/crash-recovery of nodes, and targeted drops of specific
//! message types. Installing the same plan into the same simulator twice
//! replays the exact same fault schedule bit-for-bit: fault randomness
//! comes from a dedicated RNG seeded by the plan (so adding a fault
//! never perturbs the protocol RNG stream), and every probabilistic
//! decision is drawn in deterministic event order.
//!
//! Fault semantics:
//!
//! * **Partition** — while a partition window is active, messages whose
//!   endpoints sit in different groups are destroyed, both at send time
//!   and (for messages already in flight when the split happens) at
//!   delivery time. Nodes not listed in any group are unaffected.
//! * **Byzantine link** — a [`LinkEffect`] applies to matching messages
//!   at send time: silent drop, in-flight corruption (via
//!   [`Node::corrupt_msg`]), duplication, or reordering far beyond
//!   ordinary jitter.
//! * **Crash** — the one way a node goes offline: a crash invokes
//!   [`Node::on_crash`] (volatile state is lost) and a recovery invokes
//!   [`Node::on_recover`] so the protocol can re-arm timers and resync.
//!   Churn is crashes too: [`FaultPlan::random_failures`] draws permanent
//!   failures and [`FaultPlan::churn`] compiles up/down sessions.
//! * **Typed drop** — drops messages whose [`Node::msg_kind`] matches,
//!   modelling an adversary that censors e.g. catch-up responses.
//!
//! [`Node::corrupt_msg`]: crate::Node::corrupt_msg
//! [`Node::on_crash`]: crate::Node::on_crash
//! [`Node::on_recover`]: crate::Node::on_recover
//! [`Node::msg_kind`]: crate::Node::msg_kind

use crate::sim::{NodeId, SimTime};
use crate::topology::ChurnModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A half-open fault window `[from, until)` in simulated microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First microsecond the fault is active.
    pub from: SimTime,
    /// First microsecond the fault is no longer active.
    pub until: SimTime,
}

impl Window {
    /// A window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Window {
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Which directed links a fault applies to (`None` = wildcard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkScope {
    /// Restrict to messages sent by this node.
    pub from: Option<NodeId>,
    /// Restrict to messages addressed to this node.
    pub to: Option<NodeId>,
}

impl LinkScope {
    /// Every link in the simulation.
    pub fn any() -> LinkScope {
        LinkScope::default()
    }

    /// Every message sent by `node`.
    pub fn from_node(node: NodeId) -> LinkScope {
        LinkScope {
            from: Some(node),
            to: None,
        }
    }

    /// The single directed link `from → to`.
    pub fn link(from: NodeId, to: NodeId) -> LinkScope {
        LinkScope {
            from: Some(from),
            to: Some(to),
        }
    }

    fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// Byzantine behaviour applied to messages crossing a faulty link.
#[derive(Clone, Copy, Debug)]
pub enum LinkEffect {
    /// Silently destroy the message with the given probability.
    Drop {
        /// Per-message drop probability.
        probability: f64,
    },
    /// Corrupt the message in flight via [`crate::Node::corrupt_msg`];
    /// messages the protocol cannot represent as corrupted are destroyed.
    Corrupt {
        /// Per-message corruption probability.
        probability: f64,
    },
    /// Deliver the message twice, the copy arriving `extra_delay_us`
    /// later.
    Duplicate {
        /// Per-message duplication probability.
        probability: f64,
        /// Additional delay of the duplicate copy.
        extra_delay_us: u64,
    },
    /// Add a uniform extra delay in `[0, max_extra_delay_us]`, reordering
    /// traffic far beyond the link model's jitter.
    Reorder {
        /// Per-message reorder probability.
        probability: f64,
        /// Maximum extra delay added to a reordered message.
        max_extra_delay_us: u64,
    },
}

/// A [`LinkEffect`] active on a set of links during a window.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// When the fault is active.
    pub window: Window,
    /// Which links it affects.
    pub scope: LinkScope,
    /// What it does to matching messages.
    pub effect: LinkEffect,
}

/// A network split into disjoint groups during a window.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// When the partition is active (healing at `window.until`).
    pub window: Window,
    /// The islands. Nodes in different groups cannot exchange messages;
    /// nodes absent from every group are unaffected.
    pub groups: Vec<Vec<NodeId>>,
}

impl PartitionSpec {
    /// Whether the partition severs the directed link `from → to` at `t`.
    pub fn severs(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        if !self.window.contains(t) {
            return false;
        }
        let group_of = |n: NodeId| self.groups.iter().position(|g| g.contains(&n));
        match (group_of(from), group_of(to)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// A crash-stop (and optional crash-recovery) of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The crashing node.
    pub node: NodeId,
    /// Crash instant.
    pub at: SimTime,
    /// Recovery instant (`None` = crash-stop forever).
    pub recover_at: Option<SimTime>,
}

/// Targeted censorship of one message type during a window.
#[derive(Clone, Copy, Debug)]
pub struct TypedDrop {
    /// When the censorship is active.
    pub window: Window,
    /// Which links it affects.
    pub scope: LinkScope,
    /// The [`crate::Node::msg_kind`] value to censor.
    pub kind: u8,
    /// Per-message drop probability.
    pub probability: f64,
}

/// A complete seeded fault schedule for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic fault decision.
    pub seed: u64,
    /// Partition windows.
    pub partitions: Vec<PartitionSpec>,
    /// Byzantine link behaviours.
    pub link_faults: Vec<LinkFault>,
    /// Crash-stop / crash-recovery schedule.
    pub crashes: Vec<CrashSpec>,
    /// Message-type censorship.
    pub typed_drops: Vec<TypedDrop>,
}

impl FaultPlan {
    /// An empty plan drawing fault randomness from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Splits the network into `groups` during `[at, heal_at)`.
    pub fn partition(mut self, at: SimTime, heal_at: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        self.partitions.push(PartitionSpec {
            window: Window::new(at, heal_at),
            groups,
        });
        self
    }

    /// Crashes `node` at `at`, recovering at `recover_at` (`None` =
    /// permanent crash-stop).
    pub fn crash(mut self, node: NodeId, at: SimTime, recover_at: Option<SimTime>) -> Self {
        self.crashes.push(CrashSpec {
            node,
            at,
            recover_at,
        });
        self
    }

    /// Crashes each of nodes `0..n_nodes` for good with probability
    /// `probability`, at an instant uniform in `[0, horizon_us)`. The draws
    /// come from the plan's seed, so the protocol RNG stream does not see
    /// them.
    pub fn random_failures(
        mut self,
        n_nodes: usize,
        probability: f64,
        horizon_us: SimTime,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFA11_0DEA_D5EE_D000);
        for node in 0..n_nodes {
            if rng.random::<f64>() < probability {
                let at = rng.random_range(0..horizon_us.max(1));
                self = self.crash(node, at, None);
            }
        }
        self
    }

    /// Adds the up/down sessions `model` generates for an `n_nodes` fleet
    /// under the plan's seed: each session is a crash and its recovery.
    pub fn churn(mut self, model: &ChurnModel, n_nodes: usize) -> Self {
        self.crashes.extend(model.trace(self.seed, n_nodes));
        self
    }

    /// Applies a byzantine `effect` on `scope` during `[from, until)`.
    pub fn byzantine(
        mut self,
        from: SimTime,
        until: SimTime,
        scope: LinkScope,
        effect: LinkEffect,
    ) -> Self {
        self.link_faults.push(LinkFault {
            window: Window::new(from, until),
            scope,
            effect,
        });
        self
    }

    /// Censors messages of `kind` on `scope` during `[from, until)` with
    /// the given probability.
    pub fn drop_kind(
        mut self,
        from: SimTime,
        until: SimTime,
        scope: LinkScope,
        kind: u8,
        probability: f64,
    ) -> Self {
        self.typed_drops.push(TypedDrop {
            window: Window::new(from, until),
            scope,
            kind,
            probability,
        });
        self
    }

    /// Whether any partition severs `from → to` at `t`.
    pub fn severed(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(from, to, t))
    }
}

/// What the fault layer decided to do with one outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendVerdict {
    /// Deliver normally (possibly with extra delay).
    Deliver,
    /// Deliver a corrupted version (extra delay may still apply).
    DeliverCorrupted,
    /// Destroy the message: partitioned away.
    DropPartition,
    /// Destroy the message: byzantine drop / censorship / unrepresentable
    /// corruption.
    DropFault,
}

/// Outcome of running one send through the fault layer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendFate {
    pub verdict: SendVerdict,
    /// Extra delivery delay from reordering.
    pub extra_delay_us: u64,
    /// Schedule a duplicate copy this much later than the original.
    pub duplicate_after_us: Option<u64>,
}

/// Runtime fault state compiled into a [`crate::Simulator`].
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        // Domain-separate the fault stream from the protocol stream so
        // installing a plan never perturbs protocol randomness.
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xFA01_7C4A_0511_77ED);
        FaultState { plan, rng }
    }

    /// Adds `plan`'s faults to the installed ones. Fault randomness keeps
    /// drawing from the first plan's stream.
    pub(crate) fn extend(&mut self, plan: FaultPlan) {
        self.plan.partitions.extend(plan.partitions);
        self.plan.link_faults.extend(plan.link_faults);
        self.plan.crashes.extend(plan.crashes);
        self.plan.typed_drops.extend(plan.typed_drops);
    }

    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Whether a message in flight must be destroyed at delivery time.
    pub(crate) fn severed_at_delivery(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.plan.severed(from, to, t)
    }

    /// Runs one outgoing message through the fault layer at send time.
    ///
    /// Draws from the fault RNG in deterministic (event) order; the
    /// corruption itself is resolved by the caller because it needs the
    /// node's message type.
    pub(crate) fn judge_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: u8,
        now: SimTime,
    ) -> SendFate {
        let mut fate = SendFate {
            verdict: SendVerdict::Deliver,
            extra_delay_us: 0,
            duplicate_after_us: None,
        };
        if self.plan.severed(from, to, now) {
            fate.verdict = SendVerdict::DropPartition;
            return fate;
        }
        // Typed censorship first: it models an adversary filtering by
        // content, upstream of generic link mangling.
        for td in &self.plan.typed_drops {
            if td.window.contains(now)
                && td.scope.matches(from, to)
                && td.kind == kind
                && self.rng.random::<f64>() < td.probability
            {
                fate.verdict = SendVerdict::DropFault;
                return fate;
            }
        }
        for lf in &self.plan.link_faults {
            if !lf.window.contains(now) || !lf.scope.matches(from, to) {
                continue;
            }
            match lf.effect {
                LinkEffect::Drop { probability } => {
                    if self.rng.random::<f64>() < probability {
                        fate.verdict = SendVerdict::DropFault;
                        return fate;
                    }
                }
                LinkEffect::Corrupt { probability } => {
                    if self.rng.random::<f64>() < probability {
                        fate.verdict = SendVerdict::DeliverCorrupted;
                    }
                }
                LinkEffect::Duplicate {
                    probability,
                    extra_delay_us,
                } => {
                    if self.rng.random::<f64>() < probability {
                        fate.duplicate_after_us = Some(extra_delay_us);
                    }
                }
                LinkEffect::Reorder {
                    probability,
                    max_extra_delay_us,
                } => {
                    if self.rng.random::<f64>() < probability {
                        fate.extra_delay_us = fate
                            .extra_delay_us
                            .saturating_add(self.rng.random_range(0..=max_extra_delay_us));
                    }
                }
            }
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let w = Window::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }

    #[test]
    fn partition_severs_across_groups_only() {
        let p = PartitionSpec {
            window: Window::new(0, 100),
            groups: vec![vec![0, 1], vec![2]],
        };
        assert!(p.severs(0, 2, 50));
        assert!(p.severs(2, 1, 50));
        assert!(!p.severs(0, 1, 50));
        // Unlisted nodes are unaffected.
        assert!(!p.severs(0, 7, 50));
        assert!(!p.severs(7, 2, 50));
        // Healed.
        assert!(!p.severs(0, 2, 100));
    }

    #[test]
    fn scope_wildcards() {
        assert!(LinkScope::any().matches(3, 4));
        assert!(LinkScope::from_node(3).matches(3, 9));
        assert!(!LinkScope::from_node(3).matches(4, 9));
        assert!(LinkScope::link(3, 9).matches(3, 9));
        assert!(!LinkScope::link(3, 9).matches(9, 3));
    }

    #[test]
    fn judge_send_is_deterministic_per_seed() {
        let plan = FaultPlan::new(7).byzantine(
            0,
            1_000,
            LinkScope::any(),
            LinkEffect::Drop { probability: 0.5 },
        );
        let run = |plan: &FaultPlan| {
            let mut st = FaultState::new(plan.clone());
            (0..100)
                .map(|i| st.judge_send(0, 1, 0, i as SimTime).verdict)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&plan), run(&plan));
        let verdicts = run(&plan);
        assert!(verdicts.contains(&SendVerdict::Deliver));
        assert!(verdicts.contains(&SendVerdict::DropFault));
    }

    #[test]
    fn random_failures_are_seeded_permanent_and_in_the_horizon() {
        let plan = |seed| FaultPlan::new(seed).random_failures(1_000, 0.3, 5_000);
        let a = plan(3);
        assert_eq!(a.crashes, plan(3).crashes, "same seed, same failures");
        assert_ne!(a.crashes, plan(4).crashes);
        assert!((240..360).contains(&a.crashes.len()), "{}", a.crashes.len());
        let mut nodes: Vec<NodeId> = a.crashes.iter().map(|c| c.node).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), a.crashes.len(), "each node fails at most once");
        for c in &a.crashes {
            assert!(c.at < 5_000 && c.recover_at.is_none(), "{c:?}");
        }
        assert!(FaultPlan::new(3)
            .random_failures(100, 0.0, 5_000)
            .crashes
            .is_empty());
    }

    #[test]
    fn typed_drop_filters_by_kind() {
        let plan = FaultPlan::new(1).drop_kind(0, 1_000, LinkScope::any(), 3, 1.0);
        let mut st = FaultState::new(plan);
        assert_eq!(st.judge_send(0, 1, 3, 10).verdict, SendVerdict::DropFault);
        assert_eq!(st.judge_send(0, 1, 2, 10).verdict, SendVerdict::Deliver);
        assert_eq!(st.judge_send(0, 1, 3, 2_000).verdict, SendVerdict::Deliver);
    }
}
