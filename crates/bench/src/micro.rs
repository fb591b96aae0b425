//! The one way `pds2-bench` times a layer (`bench_micro`): every row is
//! a median with its median absolute deviation and its sample count,
//! every file carries the host it was recorded on, and there is one
//! JSON shape.
//!
//! `benchmark/` measures whatever is on the path of its five workloads;
//! rows belong here only when it cannot see them: a size sweep over
//! something it fixes, or a layer its workloads never reach.

use std::time::Instant;

/// One measured or counted quantity.
#[derive(Debug)]
pub struct Row {
    /// `layer.thing.quantity_unit`, with `@size` appended in a sweep.
    pub name: String,
    /// `ns` / `us` / `ms` for timings, otherwise what is counted.
    pub unit: &'static str,
    /// Median of the samples (the value itself for a counted row).
    pub median: f64,
    /// Median absolute deviation of the samples from their median.
    pub mad: f64,
    /// Number of samples; 1 for a counted row.
    pub n: usize,
}

/// Sorts `v` and returns its middle.
fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "a row needs at least one sample");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(median, median absolute deviation)` of `samples`, which it sorts.
/// Both hold still under a minority of outliers, which is why a slow
/// spell of the host during one sample does not move a row.
pub fn summarize(samples: &mut [f64]) -> (f64, f64) {
    let med = median(samples);
    let mut deviations: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    (med, median(&mut deviations))
}

/// Collects rows, printing each as it lands, and writes them out once.
pub struct Micro {
    smoke: bool,
    rows: Vec<Row>,
}

impl Micro {
    /// An empty collector; `smoke` is only recorded in the file.
    pub fn new(smoke: bool) -> Self {
        Micro {
            smoke,
            rows: Vec::new(),
        }
    }

    /// Times `f`: one untimed call, then `samples` samples of `iters`
    /// back-to-back calls each. The row is the per-call time in `unit`
    /// (`ns`, `us` or `ms`); returns its median.
    pub fn time(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: usize,
        iters: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let per_second = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => panic!("{name}: {other} is not a time unit"),
        };
        f();
        let mut taken: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_secs_f64() * per_second / iters as f64
            })
            .collect();
        self.record(name, unit, &mut taken)
    }

    /// A row from samples the caller timed itself; returns its median.
    pub fn record(&mut self, name: &str, unit: &'static str, samples: &mut [f64]) -> f64 {
        let (median, mad) = summarize(samples);
        self.push(Row {
            name: name.to_string(),
            unit,
            median,
            mad,
            n: samples.len(),
        });
        median
    }

    /// A row for something counted, not timed.
    pub fn count(&mut self, name: &str, unit: &'static str, value: u64) {
        self.push(Row {
            name: name.to_string(),
            unit,
            median: value as f64,
            mad: 0.0,
            n: 1,
        });
    }

    fn push(&mut self, row: Row) {
        assert!(
            self.rows.iter().all(|r| r.name != row.name),
            "{} is measured twice",
            row.name
        );
        println!(
            "{:<44} {:>14} {:<6} mad {:<10} n {}",
            row.name,
            number(row.median),
            row.unit,
            number(row.mad),
            row.n
        );
        self.rows.push(row);
    }

    /// Writes `{"host", "smoke", "rows"}` to `path`.
    pub fn finish(self, path: &str) {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"host\": {{\"cores\": {}, \"workers\": {}, \"sha256_backend\": \"{}\"}},\n",
            pds2_par::hardware_cores(),
            pds2_par::current_threads(),
            pds2_crypto::sha256::backend(),
        ));
        json.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"mad\": {}, \"n\": {}}}{}\n",
                r.name,
                r.unit,
                number(r.median),
                number(r.mad),
                r.n,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path} ({} rows)", self.rows.len());
    }
}

/// Four decimals below a thousand and none from there up; a whole
/// number prints without any, so a count reads back exactly.
fn number(v: f64) -> String {
    let scale = if v.abs() < 1e3 { 1e4 } else { 1.0 };
    format!("{}", (v * scale).round() / scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_takes_the_middle_of_odd_even_and_single_samples() {
        assert_eq!(summarize(&mut [5.0, 1.0, 3.0]), (3.0, 2.0));
        assert_eq!(summarize(&mut [4.0, 1.0, 2.0, 3.0]), (2.5, 1.0));
        assert_eq!(summarize(&mut [7.5]), (7.5, 0.0));
    }

    #[test]
    fn one_outlier_moves_neither_median_nor_mad() {
        let calm = summarize(&mut [10.0, 11.0, 12.0, 13.0, 14.0]);
        let spiked = summarize(&mut [10.0, 11.0, 12.0, 13.0, 1e9]);
        assert_eq!(calm, (12.0, 1.0));
        assert_eq!(spiked, calm);
    }

    #[test]
    fn counts_are_written_exactly_and_timings_to_four_decimals() {
        assert_eq!(number(153_775_520.0), "153775520");
        assert_eq!(number(22.09996), "22.1");
        assert_eq!(number(0.21614), "0.2161");
        assert_eq!(number(3_576_373.4), "3576373");
        assert_eq!(number(0.0), "0");
    }
}
