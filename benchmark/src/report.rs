//! What one workload run produces, and the checks every run makes.

use crate::adapter::{self, Chain, Hash};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Operations the workload attempted (transactions, lifecycle calls,
    /// replays) and how many of them failed or were lost.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// End-to-end metrics: value and sample count.
    pub e2e: BTreeMap<&'static str, (f64, u64)>,
    /// Per-layer metrics.
    pub layers: BTreeMap<String, f64>,
    /// Sizes and settings worth recording next to the numbers.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, n: usize) {
        self.e2e.insert(name, (value, n as u64));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records a failed or lost operation and why.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.violations.push(what.into());
    }

    /// Two nodes must agree on `(height, head hash, state root)`.
    pub fn check_same_tip(&mut self, what: &str, a: (u64, Hash, Hash), b: (u64, Hash, Hash)) {
        if a != b {
            self.fail(format!(
                "{what}: tips differ: height {} vs {}, head {} vs {}, state {} vs {}",
                a.0,
                b.0,
                a.1.short(),
                b.1.short(),
                a.2.short(),
                b.2.short()
            ));
        }
    }

    /// `total_native_supply + burned` must equal what genesis minted.
    pub fn check_supply(&mut self, what: &str, chain: &Chain, genesis_supply: u128) {
        let now = adapter::supply_plus_burned(chain);
        if now != genesis_supply {
            self.fail(format!(
                "{what}: supply + burned is {now}, genesis minted {genesis_supply}"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}
