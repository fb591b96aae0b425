//! # pds2-bench
//!
//! Shared harness code for the PDS² experiment binaries (`src/bin/exp_*`,
//! each regenerating one row-set of EXPERIMENTS.md; see DESIGN.md §4 for
//! the experiment index) and [`micro`], the one timing harness, which
//! `src/bin/bench_micro` fills with the rows the end-to-end benchmark
//! under `benchmark/` cannot see.

#![forbid(unsafe_code)]

use pds2_chain::address::Address;
use pds2_core::marketplace::{Marketplace, StorageChoice};
use pds2_core::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2_ml::data::{gaussian_blobs, Dataset};
use pds2_storage::semantic::{MetaValue, Metadata, Requirement};
use pds2_tee::measurement::EnclaveCode;

/// Prints a fixed-width table to stdout. Rows may be shorter or longer
/// than `headers`.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            // A cell beyond the last header column prints at its own width.
            let width = widths.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{cell:>width$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Standard temperature-sensor metadata used by the experiments.
pub fn temperature_metadata() -> Metadata {
    Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/environment/temperature".into()),
            0,
        )
        .with("sample-rate-hz", MetaValue::Num(1.0), 1)
}

/// A classification workload spec bound to `code`.
pub fn classification_spec(
    code: &EnclaveCode,
    validation: Dataset,
    scheme: RewardScheme,
    min_providers: u32,
) -> WorkloadSpec {
    WorkloadSpec {
        title: "bench".into(),
        precondition: Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        },
        task: TaskKind::BinaryClassification,
        feature_dim: validation.dim() as u32,
        provider_reward: 100_000,
        executor_fee: 1_000,
        reward_scheme: scheme,
        min_providers,
        min_records: 10,
        code_measurement: code.measurement(),
        validation,
        local_epochs: 5,
        aggregation_rounds: 3,
        dp_noise_multiplier: None,
        reward_token: None,
        data_bounds: None,
    }
}

/// A fully-populated marketplace world ready to run one workload.
pub struct BenchWorld {
    /// The marketplace under test.
    pub market: Marketplace,
    /// The workload consumer.
    pub consumer: Address,
    /// Participating providers.
    pub providers: Vec<Address>,
    /// Joined executors.
    pub executors: Vec<Address>,
    /// The submitted workload.
    pub workload: u64,
}

/// Builds a marketplace with `n_providers` providers (records ingested),
/// `n_executors` joined executors and one submitted workload.
pub fn build_world(
    seed: u64,
    n_providers: usize,
    n_executors: usize,
    records_per_provider: usize,
    scheme: RewardScheme,
    storage: impl Fn(usize) -> StorageChoice,
) -> BenchWorld {
    let mut market = Marketplace::new(seed);
    let consumer = market.register_consumer(1, u128::MAX / 4);
    let data = gaussian_blobs(records_per_provider * n_providers, 4, 0.7, seed ^ 5);
    let (train, validation) = data.split(0.2, seed ^ 6);
    let shards = train.partition_iid(n_providers, seed ^ 7);
    let mut providers = Vec::with_capacity(n_providers);
    for (i, shard) in shards.iter().enumerate() {
        let p = market.register_provider(1000 + i as u64, storage(i));
        market.provider_add_device(p).expect("registered");
        market
            .provider_ingest(p, 0, shard, temperature_metadata())
            .expect("ingest");
        providers.push(p);
    }
    let executors: Vec<Address> = (0..n_executors)
        .map(|i| market.register_executor(5000 + i as u64))
        .collect();
    let code = EnclaveCode::new("bench-trainer", 1, b"bench-trainer-v1".to_vec());
    let spec = classification_spec(&code, validation, scheme, n_providers as u32);
    let workload = market
        .submit_workload(consumer, spec, code, n_executors as u32)
        .expect("submit");
    for &e in &executors {
        market.executor_join(e, workload).expect("join");
    }
    BenchWorld {
        market,
        consumer,
        providers,
        executors,
        workload,
    }
}

pub mod fleet;
pub mod micro;
pub mod trace_scenario;

/// Round-robin provider→executor assignments.
pub fn round_robin_assignments(world: &BenchWorld) -> Vec<(Address, Address)> {
    world
        .providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, world.executors[i % world.executors.len()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_world_is_ready_to_run() {
        let mut w = build_world(1, 3, 2, 40, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        let assignments = round_robin_assignments(&w);
        let (exec, fin) = w
            .market
            .run_full_lifecycle(w.workload, &assignments)
            .unwrap();
        assert!(exec.validation_score > 0.7);
        assert_eq!(fin.provider_shares.len(), 3);
    }

    #[test]
    fn table_printer_handles_ragged_content() {
        print_table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["wide-cell-content".into(), "3".into()],
                vec!["short".into()],
                vec!["4".into(), "5".into(), "past-the-last-header".into()],
            ],
        );
    }
}
