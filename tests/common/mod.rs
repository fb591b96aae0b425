//! Shared by `chaos.rs` and `obs_determinism.rs`: the one list pairing
//! each `NetStats` field with the `net.*` counter published from it, and
//! the golden all-faults plan.

use pds2_chain::sync::kind;
use pds2_net::{FaultPlan, LinkEffect, LinkScope, NetStats};
use std::collections::BTreeMap;

/// Every `NetStats` field beside its counter's name. The destructuring
/// has no `..`, so a new field does not compile until it has a pair.
pub fn net_counters(stats: &NetStats) -> [(&'static str, u64); 13] {
    let NetStats {
        sent,
        delivered,
        dropped_loss,
        dropped_offline,
        bytes_delivered,
        timers_fired,
        dropped_partition,
        dropped_fault,
        corrupted,
        duplicated,
        reordered,
        crashes,
        recoveries,
    } = *stats;
    [
        ("net.sent", sent),
        ("net.delivered", delivered),
        ("net.dropped_loss", dropped_loss),
        ("net.dropped_offline", dropped_offline),
        ("net.bytes_delivered", bytes_delivered),
        ("net.timers_fired", timers_fired),
        ("net.dropped_partition", dropped_partition),
        ("net.dropped_fault", dropped_fault),
        ("net.corrupted", corrupted),
        ("net.duplicated", duplicated),
        ("net.reordered", reordered),
        ("net.crashes", crashes),
        ("net.recoveries", recoveries),
    ]
}

/// The counter deltas taken around some simulator runs must equal, name
/// by name, the sum of those simulators' `stats()`. Callers hold
/// `obs::test_lock`: counters are process-global.
pub fn assert_net_counters_mirror(deltas: &BTreeMap<String, u64>, runs: &[NetStats]) {
    let lists: Vec<_> = runs.iter().map(net_counters).collect();
    for (i, (name, _)) in lists[0].iter().enumerate() {
        let want: u64 = lists.iter().map(|list| list[i].1).sum();
        let got = deltas.get(*name).copied().unwrap_or(0);
        assert_eq!(got, want, "{name} counter vs NetStats over {runs:?}");
    }
}

/// The golden scenario exercises every fault type at once.
pub fn golden_plan() -> FaultPlan {
    FaultPlan::new(0x601D)
        .partition(1_500_000, 3_500_000, vec![vec![0, 3], vec![1, 2]])
        .crash(1, 4_000_000, Some(5_500_000))
        .byzantine(
            500_000,
            2_500_000,
            LinkScope::from_node(3),
            LinkEffect::Corrupt { probability: 0.3 },
        )
        .drop_kind(6_000_000, 7_000_000, LinkScope::any(), kind::NEW_BLOCK, 1.0)
}
