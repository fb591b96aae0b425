//! Privacy-preserving computation shoot-out (§III-B): the same linear
//! inference runs in plaintext, under Paillier homomorphic encryption,
//! under secret-sharing SMC, and inside a simulated SGX enclave — with
//! wall-clock, communication and overhead numbers side by side.
//!
//! This is the reasoning behind the paper's conclusion that TEEs are "the
//! most promising solution for PDS²".
//!
//! Run with: `cargo run --release --example private_inference`

use pds2::he;
use pds2::he::fixed::{to_fixed, SCALE};
use pds2::mpc::{secure_linear_inference, MpcEngine};
use pds2::tee::cost::CostModel;
use pds2::tee::measurement::EnclaveCode;
use pds2::tee::platform::Platform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let dim = 32;
    let mut rng = StdRng::seed_from_u64(1);
    let weights: Vec<f64> = (0..dim)
        .map(|i| ((i * 7 % 13) as f64 - 6.0) / 6.0)
        .collect();
    let features: Vec<f64> = (0..dim)
        .map(|i| ((i * 5 % 11) as f64 - 5.0) / 5.0)
        .collect();
    let bias = 0.25;
    let expected: f64 = weights
        .iter()
        .zip(&features)
        .map(|(w, x)| w * x)
        .sum::<f64>()
        + bias;

    println!("linear inference, dimension {dim}\n");

    // -- plaintext baseline ------------------------------------------------
    let t = Instant::now();
    let mut plain = 0.0;
    for _ in 0..1000 {
        plain = weights
            .iter()
            .zip(&features)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + bias;
    }
    let plain_ns = t.elapsed().as_nanos() / 1000;
    println!("plaintext : {plain:.4} in ~{plain_ns} ns (no protection)");

    // -- Paillier HE ---------------------------------------------------------
    let t = Instant::now();
    let sk = he::generate_keypair(&mut rng, 1024).expect("keygen");
    let keygen_ms = t.elapsed().as_millis();
    let t = Instant::now();
    let enc_weights: Vec<he::Ciphertext> = weights
        .iter()
        .map(|&w| sk.public.encrypt_signed(&mut rng, to_fixed(w)).unwrap())
        .collect();
    let enc_ms = t.elapsed().as_millis();
    let fixed_features: Vec<i64> = features.iter().map(|&x| to_fixed(x)).collect();
    let t = Instant::now();
    let dot = he::encrypted_dot(&sk.public, &enc_weights, &fixed_features).unwrap();
    let with_bias = sk.public.add(
        &dot,
        &sk.public
            .encrypt_signed(&mut rng, to_fixed(bias) * SCALE as i64)
            .unwrap(),
    );
    let compute_ms = t.elapsed().as_millis();
    let he_result = sk.decrypt_signed(&with_bias).unwrap() as f64 / (SCALE * SCALE);
    let bytes: usize = enc_weights.iter().map(|c| c.byte_len()).sum();
    println!(
        "paillier  : {he_result:.4} — keygen {keygen_ms} ms, encrypt {enc_ms} ms, compute {compute_ms} ms, {bytes} ciphertext bytes"
    );

    // -- SMC (3-party additive sharing with Beaver triples) -----------------
    let t = Instant::now();
    let mut engine = MpcEngine::new(3, StdRng::seed_from_u64(2));
    let (smc_result, cost) = secure_linear_inference(&mut engine, &weights, bias, &features);
    let smc_ms = t.elapsed().as_micros() as f64 / 1000.0;
    // A WAN deployment pays per round; show the modelled network time.
    let wan_secs = cost.network_time_secs(0.05, 1_250_000.0);
    println!(
        "smc (3pc) : {smc_result:.4} — local {smc_ms:.2} ms, {} rounds, {} bytes, ~{wan_secs:.2} s over a 50 ms WAN",
        cost.rounds, cost.bytes_sent
    );

    // -- simulated TEE -------------------------------------------------------
    let platform = Platform::new(9, CostModel::default());
    let code = EnclaveCode::new("inference", 1, b"inference-binary".to_vec());
    let mut enclave = platform.launch(&code);
    let working_set = (dim * 16) as u64;
    let tee_result = enclave.execute(plain_ns as u64, working_set, || {
        weights
            .iter()
            .zip(&features)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + bias
    });
    let meter = enclave.meter();
    println!(
        "tee (sgx) : {tee_result:.4} — {} ns charged ({} transition), result attested & sealed",
        meter.charged_ns, meter.transitions
    );

    println!("\nexpected  : {expected:.4}");
    assert!((he_result - expected).abs() < 1e-3);
    assert!((smc_result - expected).abs() < 1e-2);
    assert!((tee_result - expected).abs() < 1e-12);

    println!(
        "\nshape check (paper §III-B): HE pays orders of magnitude in compute, \
         SMC pays rounds/bandwidth, the TEE pays a small constant overhead."
    );
}
