//! The one replica fleet of the chaos scenarios: PoA validators of one
//! genesis chain, gossiping blocks on a simulated LAN under a
//! [`FaultPlan`]. `tests/chaos.rs`, `tests/obs_determinism.rs`, the E16
//! trace scenario and `exp_chaos` all build their fleets here, so a
//! scenario differs from another only in its plan, its seed and the
//! fields it sets below.

use parking_lot::Mutex;
use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sync::{ChainReplica, GenesisFactory};
use pds2_crypto::KeyPair;
use pds2_net::{FaultPlan, LinkModel, SchedulerKind, Simulator};
use pds2_storage::chainlog::ChainLog;
use std::sync::Arc;

/// Replicas in a [`Fleet::lan`] fleet, each a validator of the genesis
/// committee.
pub const N_REPLICAS: usize = 4;

/// The fleet's genesis: validators `KeyPair::from_seed(9_000 + i)`, the
/// account of `KeyPair::from_seed(1)` holding 1 000 000, no contracts.
pub fn genesis() -> GenesisFactory {
    Arc::new(|| {
        Blockchain::new(
            (0..N_REPLICAS as u64)
                .map(|i| KeyPair::from_seed(9_000 + i))
                .collect(),
            &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig::default(),
        )
    })
}

/// The shape of a fleet: how many replicas, on which links, under which
/// scheduler, and which one journals.
pub struct Fleet {
    /// Replicas; replica `i` is validator `i`, so at most [`N_REPLICAS`].
    pub replicas: usize,
    /// The links between them.
    pub link: LinkModel,
    /// Event scheduler: the timing wheel, or the heap oracle.
    pub scheduler: SchedulerKind,
    /// A replica that journals into a log surviving its crashes,
    /// snapshotting every 4 blocks. The others are volatile and resync
    /// from genesis after a crash.
    pub journaled: Option<(usize, Arc<Mutex<ChainLog>>)>,
}

impl Fleet {
    /// Every validator, volatile, on the timing wheel over a 5 ± 2 ms,
    /// 100 Mbit/s LAN that loses nothing.
    pub fn lan() -> Fleet {
        Fleet {
            replicas: N_REPLICAS,
            link: LinkModel {
                base_latency_us: 5_000,
                jitter_us: 2_000,
                bandwidth_bytes_per_sec: 12_500_000,
                drop_probability: 0.0,
                node_slowdown: Vec::new(),
                topology: None,
            },
            scheduler: SchedulerKind::Wheel,
            journaled: None,
        }
    }

    /// The fleet, not yet started, driven from `seed` under `plan`: each
    /// replica produces on its turn every 200 ms and announces its head
    /// every 150 ms.
    pub fn build(self, seed: u64, plan: FaultPlan) -> Simulator<ChainReplica> {
        let f = genesis();
        let replicas = (0..self.replicas)
            .map(|i| match &self.journaled {
                Some((j, log)) if *j == i => ChainReplica::new_persistent(
                    f.clone(),
                    Some(i),
                    200_000,
                    150_000,
                    log.clone(),
                    4,
                ),
                _ => ChainReplica::new(f.clone(), Some(i), 200_000, 150_000),
            })
            .collect();
        let mut sim = Simulator::with_scheduler(replicas, self.link, seed, self.scheduler);
        sim.install_fault_plan(plan);
        sim
    }
}
