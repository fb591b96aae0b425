//! E11 — §IV-D: membership-inference leakage vs differential privacy.
//!
//! Trains models on an overfit-prone task under increasing DP noise and
//! reports the loss-threshold attack's advantage alongside the model's
//! test accuracy — the leakage/utility trade-off the paper says "any
//! implementation of PDS² \[must\] take steps to minimize".
//!
//! `cargo run --release -p pds2-bench --bin exp_privacy_leak`

use pds2_bench::print_table;
use pds2_learning::attack::{generalization_gap, loss_threshold_attack};
use pds2_learning::dp;
use pds2_ml::data::{gaussian_blobs, Dataset};
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::{LogisticRegression, Model};
use pds2_ml::sgd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Full-batch training: DP-SGD steps (clip 1, then noise) when
/// `noise_sigma > 0`, plain unclipped steps otherwise.
fn train_dp(members: &Dataset, noise_sigma: f64, steps: usize, seed: u64) -> LogisticRegression {
    let mut model = LogisticRegression::new(members.dim());
    let mut rng = StdRng::seed_from_u64(seed);
    let batch: Vec<usize> = (0..members.len()).collect();
    for _ in 0..steps {
        if noise_sigma > 0.0 {
            dp::sgd_step(&mut model, members, &batch, 0.5, 1.0, noise_sigma, &mut rng);
        } else {
            let grad = model.gradient(members, &batch);
            sgd::step(&mut model, &grad, 0.5);
        }
    }
    model
}

fn main() {
    println!("E11: membership-inference advantage vs DP noise (§IV-D)\n");
    // Overfit-prone: more dimensions than training samples and heavily
    // overlapping classes, so the model can memorize its training noise.
    let data = gaussian_blobs(60, 40, 4.0, 7);
    let (members, non_members) = data.split(0.5, 8);
    let eval = gaussian_blobs(600, 40, 4.0, 9); // fresh i.i.d. test data

    let mut rows = Vec::new();
    for &sigma in &[0.0f64, 0.01, 0.02, 0.05, 0.1, 0.2] {
        // Average the attack over a few training seeds.
        let mut adv = 0.0;
        let mut acc = 0.0;
        let mut gap = 0.0;
        let seeds = 5;
        for s in 0..seeds {
            let model = train_dp(&members, sigma, 300, 100 + s);
            let attack = loss_threshold_attack(&model, &members, &non_members);
            adv += attack.advantage;
            acc += classifier_accuracy(&model, &eval);
            gap += generalization_gap(&model, &members, &non_members);
        }
        rows.push(vec![
            format!("{:.2}", sigma),
            format!("{:.3}", adv / seeds as f64),
            format!("{:.3}", gap / seeds as f64),
            format!("{:.3}", acc / seeds as f64),
        ]);
    }
    print_table(
        &[
            "noise sigma",
            "attack advantage",
            "train/test loss gap",
            "test accuracy",
        ],
        &rows,
    );
    println!(
        "\nshape: without noise the attacker gains real advantage from the \
         memorized training losses; increasing DP noise shrinks the \
         generalization gap and the advantage toward zero, at a gradual \
         accuracy cost — the §IV-D mitigation curve."
    );
}
