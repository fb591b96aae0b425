//! E9 — §IV-B: data-authenticity pipeline.
//!
//! Part 1: what a reading costs the device (sign) and the executor
//! (verify) when the device signs batches of 1, 8, 32 and 128 readings:
//! one signature per batch, one inclusion path per reading.
//! Part 2: the attack matrix — forged payloads, proofs lifted from
//! another batch, replays, duplicates, unendorsed devices — detection
//! rate must be 100% with zero false positives on honest traffic.
//!
//! `cargo run --release -p pds2-bench --bin exp_authenticity`

use pds2_bench::micro::summarize;
use pds2_bench::print_table;
use pds2_core::authenticity::{Device, ManufacturerRegistry, ReadingRejection, ReadingVerifier};
use pds2_crypto::KeyPair;
use std::time::Instant;

fn main() {
    println!("E9: device-signed reading pipeline (§IV-B)\n");
    let mut registry = ManufacturerRegistry::new();
    let manufacturer = KeyPair::from_seed(1);
    registry.register_manufacturer(manufacturer.public.clone());

    // Endorse every device up front (registry is borrowed immutably by
    // the verifiers below).
    let mut device = Device::new(1);
    let mut honest_device = Device::new(2);
    let mut rogue = Device::new(3); // deliberately NOT endorsed
    let mut replay_device = Device::new(4);
    registry.endorse(&manufacturer, &device).unwrap();
    registry.endorse(&manufacturer, &honest_device).unwrap();
    registry.endorse(&manufacturer, &replay_device).unwrap();

    // Part 1: cost per reading by batch size: 1 024 readings signed and
    // then verified by a new verifier, the median of five such passes.
    let n = 1024usize;
    let mut rows = Vec::new();
    for batch in [1usize, 8, 32, 128] {
        let (mut sign_us, mut verify_us) = (Vec::new(), Vec::new());
        let mut path_steps = 0;
        for _ in 0..5 {
            let t = Instant::now();
            let readings: Vec<_> = (0..n / batch)
                .flat_map(|_| {
                    device.sign_batch((0..batch).map(|_| (0, vec![20.0, 0.5, 1.0, 2.0], 21.0)))
                })
                .collect();
            sign_us.push(t.elapsed().as_secs_f64() * 1e6 / n as f64);
            let mut verifier = ReadingVerifier::new(&registry);
            let t = Instant::now();
            for r in &readings {
                verifier.verify(r).expect("honest reading");
            }
            verify_us.push(t.elapsed().as_secs_f64() * 1e6 / n as f64);
            assert_eq!(verifier.signatures_checked, (n / batch) as u64);
            path_steps = readings[0].path.steps.len();
        }
        let (sign_us, verify_us) = (summarize(&mut sign_us).0, summarize(&mut verify_us).0);
        rows.push(vec![
            batch.to_string(),
            format!("{sign_us:.2}"),
            format!("{verify_us:.2}"),
            format!("{:.0}", 1e6 / verify_us),
            (n / batch).to_string(),
            path_steps.to_string(),
        ]);
    }
    print_table(
        &[
            "batch",
            "sign us/reading",
            "verify us/reading",
            "verified readings/s",
            "signatures checked",
            "path steps",
        ],
        &rows,
    );

    // Part 2: attack matrix.
    println!("\nattack matrix (1000 honest in batches of 25 + 500 attacks)");
    let mut verifier = ReadingVerifier::new(&registry);
    let honest: Vec<_> = (0..1000u64)
        .step_by(25)
        .flat_map(|t0| {
            honest_device.sign_batch((t0..t0 + 25).map(|t| (t, vec![20.0 + t as f64 * 0.001], 0.0)))
        })
        .collect();
    let mut false_positives = 0;
    for r in &honest {
        if verifier.verify(r).is_err() {
            false_positives += 1;
        }
    }
    let mut detections: Vec<(&str, usize, usize)> = Vec::new();

    // Forged payloads.
    let mut caught = 0;
    for r in honest.iter().take(100) {
        let mut f = r.clone();
        f.target = 1234.5;
        if verifier.verify(&f) == Err(ReadingRejection::BadSignature) {
            caught += 1;
        }
    }
    detections.push(("forged payload", caught, 100));

    // An honest reading carried under the signature and path of another
    // batch, whose root the verifier has already accepted.
    let mut caught = 0;
    for (r, other) in honest.iter().zip(&honest[25..]).take(100) {
        let mut f = r.clone();
        f.signature = other.signature.clone();
        f.path = other.path.clone();
        if verifier.verify(&f) == Err(ReadingRejection::BadSignature) {
            caught += 1;
        }
    }
    detections.push(("proof from another batch", caught, 100));

    // Duplicates (resale).
    let mut caught = 0;
    for r in honest.iter().take(100) {
        if verifier.verify(r) == Err(ReadingRejection::Duplicate) {
            caught += 1;
        }
    }
    detections.push(("duplicate resale", caught, 100));

    // Sequence replays (new blob, old sequence): craft readings with a
    // fresh device, accept the latest one, then replay earlier ones.
    let old: Vec<_> = (0..100u64)
        .map(|t| replay_device.sign_reading(t, vec![t as f64], 0.0))
        .collect();
    let newest = replay_device.sign_reading(100, vec![0.0], 0.0);
    verifier.verify(&newest).unwrap();
    let mut caught = 0;
    for r in &old {
        if verifier.verify(r) == Err(ReadingRejection::SequenceReplay) {
            caught += 1;
        }
    }
    detections.push(("sequence replay", caught, 100));

    // Unendorsed device.
    let mut caught = 0;
    for t in 0..100u64 {
        let r = rogue.sign_reading(t, vec![1.0], 0.0);
        if verifier.verify(&r) == Err(ReadingRejection::UntrustedDevice) {
            caught += 1;
        }
    }
    detections.push(("unendorsed device", caught, 100));

    let rows: Vec<Vec<String>> = detections
        .iter()
        .map(|(name, caught, total)| {
            vec![
                name.to_string(),
                format!("{caught}/{total}"),
                format!("{:.0}%", *caught as f64 / *total as f64 * 100.0),
            ]
        })
        .collect();
    print_table(&["attack", "detected", "rate"], &rows);
    println!("\nfalse positives on honest traffic: {false_positives}/1000");
    assert_eq!(false_positives, 0);
    for (_, caught, total) in &detections {
        assert_eq!(caught, total, "all attacks must be detected");
    }
    println!(
        "shape: the executor pays one exponentiation per signed batch and a \
         few hashes per reading, so verification cost falls with the batch \
         size towards the hashing floor; every §IV-B attack class is \
         rejected with zero false positives."
    );
}
