//! E1 — Fig. 1 + Fig. 2: end-to-end workload lifecycle vs provider count.
//!
//! For each provider count, runs the complete lifecycle and reports the
//! signatures it checked, chain growth and the on-chain audit-event
//! counts, demonstrating that every Fig. 2 interaction is observable
//! on-chain. Every column is a function of the seed. What each phase
//! costs in time is `market_lifecycle`'s to say (`benchmark/run.sh`):
//! `core.marketplace.{provider_accept,execute,finalize}_ms`.
//!
//! Regenerates the E1 rows of EXPERIMENTS.md:
//! `cargo run --release -p pds2-bench --bin exp_lifecycle`

use pds2_bench::{build_world, print_table, round_robin_assignments};
use pds2_core::marketplace::StorageChoice;
use pds2_core::workload::RewardScheme;

fn main() {
    println!("E1: workload lifecycle vs provider count (2 executors, 40 records/provider)\n");
    let mut rows = Vec::new();
    for &n_providers in &[4usize, 8, 16, 32, 64] {
        let mut world = build_world(
            100 + n_providers as u64,
            n_providers,
            2,
            40,
            RewardScheme::ProportionalToRecords,
            |_| StorageChoice::Local,
        );
        let assignments = round_robin_assignments(&world);

        for (p, e) in &assignments {
            world
                .market
                .provider_accept(*p, world.workload, *e)
                .unwrap();
        }
        assert!(world.market.try_start(world.workload).unwrap());
        let exec = world.market.execute(world.workload).unwrap();
        let fin = world.market.finalize(world.workload).unwrap();

        let events = world.market.chain.events().len();
        let participation_events = world
            .market
            .chain
            .events_by_topic("workload.participation")
            .len();
        rows.push(vec![
            n_providers.to_string(),
            exec.signatures_checked.to_string(),
            format!("{:.3}", exec.validation_score),
            world.market.chain.height().to_string(),
            events.to_string(),
            participation_events.to_string(),
            fin.provider_shares.len().to_string(),
        ]);
    }
    print_table(
        &[
            "providers",
            "sigs_checked",
            "val_acc",
            "blocks",
            "events",
            "particip_ev",
            "paid",
        ],
        &rows,
    );
    println!(
        "\nshape: the device signatures checked grow linearly with providers (one \
         signed batch each); every provider acceptance appears as exactly one \
         on-chain participation event.\n\
         phase times: core.marketplace.{{provider_accept,execute,finalize}}_ms on \
         market_lifecycle (bash benchmark/run.sh)."
    );
}
