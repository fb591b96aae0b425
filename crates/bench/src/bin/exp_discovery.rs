//! E10 — §IV-C: the data-discovery trade-off between metadata leakage and
//! verifiable precondition complexity.
//!
//! A synthetic population of records carries attributes of increasing
//! sensitivity (class rank 0, rate rank 1, region rank 2, device serial
//! rank 3). A workload precondition needs the first three. As providers
//! raise their publish level, matching precision/recall rises — and so do
//! the leaked bits. The experiment prints the full trade-off curve.
//!
//! `cargo run --release -p pds2-bench --bin exp_discovery`

use pds2_bench::print_table;
use pds2_storage::semantic::{MetaValue, Metadata, Ontology, Requirement};
use pds2_storage::store::{LocalStore, Record, StorageBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("E10: discovery precision/recall vs metadata leakage (§IV-C)\n");
    let mut ontology = Ontology::new();
    ontology.declare("sensor/environment/temperature");
    ontology.declare("sensor/environment/humidity");
    ontology.declare("sensor/motion/accelerometer");

    // Population: 300 records; ground truth eligibility = temperature
    // class AND rate in [0.5, 2] AND region EU.
    let mut rng = StdRng::seed_from_u64(1);
    let classes = [
        "sensor/environment/temperature",
        "sensor/environment/humidity",
        "sensor/motion/accelerometer",
    ];
    let regions = ["EU", "US", "APAC"];
    let mut records = Vec::new();
    let mut truth = Vec::new();
    for i in 0..300 {
        let class = classes[rng.random_range(0..3)];
        let rate = rng.random_range(0.1..4.0f64);
        let region = regions[rng.random_range(0..3)];
        let eligible = class == classes[0] && (0.5..=2.0).contains(&rate) && region == "EU";
        let meta = Metadata::new()
            .with("type", MetaValue::Class(class.into()), 0)
            .with("sample-rate-hz", MetaValue::Num(rate), 1)
            .with("region", MetaValue::Str(region.into()), 2)
            .with("device-serial", MetaValue::Str(format!("SN-{i:06}")), 3);
        records.push(Record {
            payload: format!("payload-{i}").into_bytes(),
            metadata: meta,
            timestamp: i as u64,
        });
        truth.push(eligible);
    }

    let requirement = Requirement::All(vec![
        Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment/temperature".into(),
        },
        Requirement::NumInRange {
            attr: "sample-rate-hz".into(),
            min: 0.5,
            max: 2.0,
        },
        Requirement::StrEquals {
            attr: "region".into(),
            value: "EU".into(),
        },
    ]);
    println!(
        "precondition complexity: {} atomic predicates\n",
        requirement.complexity()
    );

    let mut rows = Vec::new();
    for level in 0u8..=3 {
        // Matching on the *published* (redacted) view.
        let mut matched = 0usize;
        let mut true_pos = 0usize;
        let mut leak_bits = 0.0;
        for (record, &eligible) in records.iter().zip(&truth) {
            let published = record.metadata.redact(level);
            leak_bits += published.leakage_bits(&ontology);
            if requirement.matches(&published, &ontology) {
                matched += 1;
                if eligible {
                    true_pos += 1;
                }
            }
        }
        let positives = truth.iter().filter(|&&t| t).count();
        let precision = if matched == 0 {
            1.0
        } else {
            true_pos as f64 / matched as f64
        };
        let recall = true_pos as f64 / positives as f64;
        rows.push(vec![
            level.to_string(),
            format!("{:.1}", leak_bits / records.len() as f64),
            matched.to_string(),
            format!("{:.2}", precision),
            format!("{:.2}", recall),
        ]);
    }
    print_table(
        &[
            "publish level",
            "bits leaked/record",
            "matched",
            "precision",
            "recall",
        ],
        &rows,
    );

    // Demonstrate the same effect through a store.
    let mut store = LocalStore::new(pds2_crypto::KeyPair::from_seed(1).public);
    for r in records {
        store.put(r);
    }
    let onto = &ontology;
    let hits = store.match_workload(&requirement, onto).len();
    println!("\nfull-detail store matching finds {hits} records");
    println!(
        "\nshape: below the level that reveals the rate and region, recall is \
         zero (eligible providers are never notified); each extra level buys \
         recall at the price of leaked bits — the §IV-C trade-off."
    );
}
