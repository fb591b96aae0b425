//! Integration tests for the privacy stack: the three §III-B techniques
//! agree on results, and differential privacy measurably reduces
//! membership-inference leakage (§IV-D, experiment E11 in miniature).

use pds2::he;
use pds2::learning::attack::loss_threshold_attack;
use pds2::learning::dp::sgd_step;
use pds2::learning::gossip::{run_gossip_experiment, DpConfig, GossipConfig, GossipRun};
use pds2::ml::data::gaussian_blobs;
use pds2::ml::model::LogisticRegression;
use pds2::ml::sgd::{train, SgdConfig};
use pds2::mpc::{secure_linear_inference, MpcEngine};
use pds2::net::LinkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All three privacy techniques compute the same linear score.
#[test]
fn he_smc_tee_agree_with_plaintext() {
    let weights = [0.5, -1.25, 2.0, 0.125];
    let features = [4.0, 2.0, 0.5, -8.0];
    let bias = 0.75;
    let expected: f64 = weights
        .iter()
        .zip(&features)
        .map(|(w, x)| w * x)
        .sum::<f64>()
        + bias;

    // HE (Paillier, fixed-point).
    let mut rng = StdRng::seed_from_u64(1);
    let sk = he::generate_keypair(&mut rng, 256).unwrap();
    let fx = |v: f64| (v * 65536.0).round() as i64;
    let enc_w: Vec<_> = weights
        .iter()
        .map(|&w| sk.public.encrypt_signed(&mut rng, fx(w)).unwrap())
        .collect();
    let fixed_x: Vec<i64> = features.iter().map(|&x| fx(x)).collect();
    let dot = he::encrypted_dot(&sk.public, &enc_w, &fixed_x).unwrap();
    let bias_ct = sk
        .public
        .encrypt_signed(&mut rng, fx(bias) * 65536)
        .unwrap();
    let total = sk.public.add(&dot, &bias_ct);
    let he_result = sk.decrypt_signed(&total).unwrap() as f64 / (65536.0 * 65536.0);
    assert!((he_result - expected).abs() < 1e-3, "HE: {he_result}");

    // SMC (3-party).
    let mut engine = MpcEngine::new(3, StdRng::seed_from_u64(2));
    let (smc_result, cost) = secure_linear_inference(&mut engine, &weights, bias, &features);
    assert!((smc_result - expected).abs() < 1e-2, "SMC: {smc_result}");
    assert!(cost.rounds >= 4);

    // TEE: exact plaintext math inside the enclave, with overhead charged.
    use pds2::tee::cost::CostModel;
    use pds2::tee::measurement::EnclaveCode;
    use pds2::tee::platform::Platform;
    let p = Platform::new(3, CostModel::default());
    let mut e = p.launch(&EnclaveCode::new("inf", 1, b"inf".to_vec()));
    let tee_result = e.execute(1_000, 1_000, || {
        weights
            .iter()
            .zip(&features)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + bias
    });
    assert_eq!(tee_result, expected);
    assert!(e.meter().charged_ns > 1_000, "overhead charged on top");
}

/// DP-noised gossip training reduces membership-inference advantage on an
/// overfit-prone task, at some accuracy cost.
#[test]
fn dp_reduces_membership_inference_advantage() {
    // Small, high-dimensional, well-separated-but-sparse data overfits.
    let data = gaussian_blobs(80, 16, 2.0, 7);
    let (members, non_members) = data.split(0.5, 8);
    let shards = members.partition_iid(4, 9);

    let run = |dp: Option<DpConfig>| {
        run_gossip_experiment(
            shards.clone(),
            &members, // evaluate on members to extract a model snapshot
            &GossipRun::new(
                GossipConfig {
                    period_us: 100_000,
                    local_steps: 6,
                    learning_rate: 0.4,
                    dp,
                    ..Default::default()
                },
                LinkModel::instant(),
                11,
                &[20_000_000],
            ),
            || LogisticRegression::new(16),
        )
    };
    // Train two standalone models directly for the attack comparison
    // (gossip harness returns aggregate accuracy; for the MIA we train the
    // equivalent local models with/without clipped-noisy updates).
    let mut clean = LogisticRegression::new(16);
    train(
        &mut clean,
        &members,
        &SgdConfig {
            learning_rate: 0.5,
            epochs: 300,
            lr_decay: 1.0,
            ..Default::default()
        },
    );
    let clean_attack = loss_threshold_attack(&clean, &members, &non_members);

    // DP-SGD: clipped full-batch gradients plus per-coordinate Gaussian
    // noise on every step.
    let mut noisy = LogisticRegression::new(16);
    let mut dp_rng = StdRng::seed_from_u64(5);
    let batch: Vec<usize> = (0..members.len()).collect();
    for _ in 0..300 {
        sgd_step(&mut noisy, &members, &batch, 0.5, 1.0, 0.25, &mut dp_rng);
    }
    let noisy_attack = loss_threshold_attack(&noisy, &members, &non_members);

    assert!(
        clean_attack.advantage > noisy_attack.advantage,
        "DP-style training must reduce leakage: clean {:.3} vs dp {:.3}",
        clean_attack.advantage,
        noisy_attack.advantage
    );

    // The gossip harness itself runs with DP without crashing and still
    // produces a usable model.
    let out = run(Some(DpConfig {
        clip: 1.0,
        noise_multiplier: 0.5,
    }));
    assert!(out.accuracy_curve[0] > 0.6, "{:?}", out.accuracy_curve);
}

/// Sealed third-party storage leaks no plaintext even under full lifecycle
/// use (spot-check of the §II-E requirement that details of data are
/// invisible to all actors but the provider).
#[test]
fn third_party_operator_sees_only_ciphertext_and_redacted_metadata() {
    use pds2::storage::semantic::{MetaValue, Metadata};
    use pds2::storage::store::{Record, StorageBackend, ThirdPartyStore};
    let key = [9u8; 32];
    let owner = pds2_crypto::KeyPair::from_seed(1).public;
    let mut store = ThirdPartyStore::new(owner, key, 0);
    let secret_payload = b"very-identifying-sensor-trace".to_vec();
    let meta = Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/health/heart-rate".into()),
            0,
        )
        .with("patient-id", MetaValue::Str("P-12345".into()), 9);
    let id = store.put(Record {
        payload: secret_payload.clone(),
        metadata: meta,
        timestamp: 0,
    });
    // Published metadata hides the rank-9 identifier.
    let published = store.published_metadata(id).unwrap();
    assert!(published.get("patient-id").is_none());
    assert!(published.get("type").is_some());
}
