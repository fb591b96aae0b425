//! # pds2-net
//!
//! A deterministic discrete-event network simulator: the substrate under
//! the decentralized-learning experiments (E5/E6). Protocols implement the
//! [`Node`] trait; the [`Simulator`] owns the virtual clock, delivers
//! messages through a configurable [`LinkModel`] (latency, bandwidth,
//! jitter, loss, per-node slowdown).
//!
//! Everything is seeded: the same seed reproduces the same event trace,
//! which the integration tests assert.

//! Chaos engineering: [`fault::FaultPlan`] compiles seeded fault
//! schedules — partitions, byzantine links, crash-recovery, typed
//! censorship — into the same event queue, replaying bit-identically
//! from the seed. It is the one fault model: every outage, churn
//! included, is one of its crashes.

//! Scale: the event queue is a hierarchical timing wheel
//! ([`sched::TimingWheel`], with the original heap retained as a
//! differential oracle that [`Simulator::with_scheduler`] takes), and
//! [`topology::Topology`] derives per-node attributes, regional
//! latencies, churn traces and arrival schedules from `hash(seed,
//! node_id)` instead of materialized vectors — 100k+-node scenarios run
//! in cache-resident state (`exp_scale`, E19).

#![forbid(unsafe_code)]

pub mod fault;
pub mod link;
pub mod sched;
pub mod sim;
pub mod topology;

pub use fault::{
    CrashSpec, FaultPlan, LinkEffect, LinkFault, LinkScope, PartitionSpec, TypedDrop, Window,
};
pub use link::LinkModel;
pub use sched::{EventQueue, SchedulerKind, TimingWheel};
pub use sim::{Ctx, NetStats, Node, NodeId, SimTime, Simulator};
pub use topology::{ArrivalGen, ArrivalPattern, ChurnModel, Topology};
