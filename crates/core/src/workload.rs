//! Workload specifications — the "binding contracts" consumers submit
//! (§II-C): "preconditions that the input data must fulfill, rewards that
//! data providers will receive for submitting valid data, the definition
//! of the workload itself, and any additional conditions, such as minimum
//! amount of data or providers".

use pds2_chain::erc20::TokenId;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::Digest;
use pds2_ml::data::Dataset;
use pds2_storage::semantic::Requirement;
use pds2_tee::measurement::Measurement;

/// How provider rewards are split (§IV-A reward schemes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewardScheme {
    /// Proportional to the number of records contributed (the size-based
    /// baseline the paper criticizes).
    ProportionalToRecords,
    /// Exact Shapley over provider coalitions (feasible only for small
    /// provider counts).
    ShapleyExact,
    /// Truncated Monte-Carlo Shapley with the given permutation budget.
    ShapleyMonteCarlo {
        /// Number of sampled permutations.
        permutations: u32,
    },
}

impl Encode for RewardScheme {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RewardScheme::ProportionalToRecords => enc.put_u8(0),
            RewardScheme::ShapleyExact => enc.put_u8(1),
            RewardScheme::ShapleyMonteCarlo { permutations } => {
                enc.put_u8(2);
                enc.put_u32(*permutations);
            }
        }
    }
}

impl Decode for RewardScheme {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(RewardScheme::ProportionalToRecords),
            1 => Ok(RewardScheme::ShapleyExact),
            2 => Ok(RewardScheme::ShapleyMonteCarlo {
                permutations: dec.get_u32()?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// The ML task the workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Binary classification with logistic regression.
    BinaryClassification,
    /// Regression with a linear model.
    Regression,
}

impl Encode for TaskKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            TaskKind::BinaryClassification => 0,
            TaskKind::Regression => 1,
        });
    }
}

impl Decode for TaskKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(TaskKind::BinaryClassification),
            1 => Ok(TaskKind::Regression),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// A complete workload specification.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable title.
    pub title: String,
    /// Precondition the providers' published metadata must satisfy.
    pub precondition: Requirement,
    /// The ML task to train.
    pub task: TaskKind,
    /// Feature dimension the task expects.
    pub feature_dim: u32,
    /// Total reward escrowed for providers (native currency).
    pub provider_reward: u128,
    /// Fee per participating executor (native currency).
    pub executor_fee: u128,
    /// Reward split scheme.
    pub reward_scheme: RewardScheme,
    /// Minimum distinct providers before execution may start.
    pub min_providers: u32,
    /// Minimum total records before execution may start.
    pub min_records: u64,
    /// Measurement of the approved enclave workload code — providers only
    /// grant data access to executors attesting exactly this code.
    pub code_measurement: Measurement,
    /// Consumer-supplied public validation set (used for reward valuation;
    /// contains no provider data).
    pub validation: Dataset,
    /// SGD epochs executors run locally.
    pub local_epochs: u32,
    /// Decentralized averaging rounds among executors. Encoded with the
    /// spec but read by nothing: execution takes the averaging's fixed
    /// point, the record-weighted mean, in one step (ROADMAP 8(j)).
    pub aggregation_rounds: u32,
    /// Optional differential-privacy noise multiplier applied by
    /// executors to local updates (§IV-D mitigation).
    pub dp_noise_multiplier: Option<f64>,
    /// When set, rewards and fees are escrowed and paid in this ERC-20
    /// token instead of native currency (§III-A).
    pub reward_token: Option<TokenId>,
    /// §IV-C complementary verification: executors check each reading's
    /// feature values against these inclusive bounds *on the data itself*
    /// (not just metadata), discarding out-of-range readings. The paper
    /// notes this "leak-free verification" costs executor compute on
    /// irrelevant data; [`ExecutionReport`](crate::marketplace::ExecutionReport)
    /// reports how many readings were discarded.
    pub data_bounds: Option<(f64, f64)>,
}

impl WorkloadSpec {
    /// The on-chain identity of this spec (hash of its canonical bytes).
    pub fn spec_hash(&self) -> Digest {
        self.content_hash()
    }

    /// Total escrow the consumer must fund: provider rewards plus fees for
    /// `n_executors` executors. `None` when that is more than a `u128`
    /// holds: such a spec cannot be funded.
    pub fn required_escrow(&self, n_executors: u32) -> Option<u128> {
        crate::contract::required_escrow(
            self.provider_reward,
            self.executor_fee,
            n_executors as usize,
        )
    }
}

impl Encode for WorkloadSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(b"pds2-spec-v1");
        enc.put_str(&self.title);
        self.precondition.encode(enc);
        self.task.encode(enc);
        enc.put_u32(self.feature_dim);
        enc.put_u128(self.provider_reward);
        enc.put_u128(self.executor_fee);
        self.reward_scheme.encode(enc);
        enc.put_u32(self.min_providers);
        enc.put_u64(self.min_records);
        enc.put_digest(&self.code_measurement.0);
        encode_dataset(&self.validation, enc);
        enc.put_u32(self.local_epochs);
        enc.put_u32(self.aggregation_rounds);
        enc.put_option(&self.dp_noise_multiplier);
        enc.put_option(&self.reward_token);
        match self.data_bounds {
            None => enc.put_u8(0),
            Some((lo, hi)) => {
                enc.put_u8(1);
                enc.put_f64(lo);
                enc.put_f64(hi);
            }
        }
    }
}

impl Decode for WorkloadSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let magic = dec.get_raw(12)?;
        if magic != b"pds2-spec-v1" {
            return Err(DecodeError::Invalid("bad spec magic"));
        }
        Ok(WorkloadSpec {
            title: dec.get_str()?,
            precondition: Requirement::decode(dec)?,
            task: TaskKind::decode(dec)?,
            feature_dim: dec.get_u32()?,
            provider_reward: dec.get_u128()?,
            executor_fee: dec.get_u128()?,
            reward_scheme: RewardScheme::decode(dec)?,
            min_providers: dec.get_u32()?,
            min_records: dec.get_u64()?,
            code_measurement: Measurement(dec.get_digest()?),
            validation: decode_dataset(dec)?,
            local_epochs: dec.get_u32()?,
            aggregation_rounds: dec.get_u32()?,
            dp_noise_multiplier: dec.get_option()?,
            reward_token: dec.get_option()?,
            data_bounds: match dec.get_u8()? {
                0 => None,
                1 => Some((dec.get_f64()?, dec.get_f64()?)),
                t => return Err(DecodeError::InvalidTag(t)),
            },
        })
    }
}

/// Canonical dataset encoding (rows of f64 features plus target).
pub fn encode_dataset(data: &Dataset, enc: &mut Encoder) {
    enc.put_u64(data.len() as u64);
    enc.put_u32(data.dim() as u32);
    for (row, y) in data.x.iter().zip(&data.y) {
        for v in row {
            enc.put_f64(*v);
        }
        enc.put_f64(*y);
    }
}

/// Decodes a dataset written by [`encode_dataset`].
pub fn decode_dataset(dec: &mut Decoder<'_>) -> Result<Dataset, DecodeError> {
    let rows = dec.get_u64()?;
    let d = dec.get_u32()? as usize;
    // A row is `d` features and a target, eight bytes each.
    let n = dec.bounded_count(rows, d.saturating_add(1).saturating_mul(8))?;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(d);
        for _ in 0..d {
            row.push(dec.get_f64()?);
        }
        x.push(row);
        y.push(dec.get_f64()?);
    }
    Ok(Dataset::new(x, y))
}

/// Crate-internal test helpers shared with the marketplace tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use pds2_storage::semantic::Requirement;

    /// Builds a classification spec bound to `measurement`, matching the
    /// platform's default temperature ontology class.
    pub(crate) fn sample_spec_with(
        measurement: Measurement,
        validation: Dataset,
        reward_scheme: RewardScheme,
        min_providers: u32,
    ) -> WorkloadSpec {
        let dim = validation.dim().max(1) as u32;
        WorkloadSpec {
            title: "test-workload".into(),
            precondition: Requirement::HasClass {
                attr: "type".into(),
                class: "sensor/environment".into(),
            },
            task: TaskKind::BinaryClassification,
            feature_dim: dim,
            provider_reward: 10_000,
            executor_fee: 500,
            reward_scheme,
            min_providers,
            min_records: 10,
            code_measurement: measurement,
            validation,
            local_epochs: 8,
            aggregation_rounds: 3,
            dp_noise_multiplier: None,
            reward_token: None,
            data_bounds: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_ml::data::gaussian_blobs;

    pub(crate) fn sample_spec() -> WorkloadSpec {
        WorkloadSpec {
            title: "env-temperature-model".into(),
            precondition: Requirement::HasClass {
                attr: "type".into(),
                class: "sensor/environment".into(),
            },
            task: TaskKind::BinaryClassification,
            feature_dim: 3,
            provider_reward: 10_000,
            executor_fee: 500,
            reward_scheme: RewardScheme::ShapleyMonteCarlo { permutations: 20 },
            min_providers: 3,
            min_records: 50,
            code_measurement: Measurement::of(b"trainer-v1", 1),
            validation: gaussian_blobs(40, 3, 0.8, 1),
            local_epochs: 5,
            aggregation_rounds: 3,
            dp_noise_multiplier: None,
            reward_token: None,
            data_bounds: None,
        }
    }

    #[test]
    fn spec_codec_roundtrip() {
        let spec = sample_spec();
        let bytes = spec.to_bytes();
        let back = WorkloadSpec::from_bytes(&bytes).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.spec_hash(), spec.spec_hash());
    }

    #[test]
    fn spec_hash_binds_all_fields() {
        let spec = sample_spec();
        let mut modified = spec.clone();
        modified.provider_reward += 1;
        assert_ne!(spec.spec_hash(), modified.spec_hash());
        let mut modified = spec.clone();
        modified.min_providers += 1;
        assert_ne!(spec.spec_hash(), modified.spec_hash());
    }

    #[test]
    fn escrow_accounts_for_executors() {
        let spec = sample_spec();
        assert_eq!(spec.required_escrow(0), Some(10_000));
        assert_eq!(spec.required_escrow(4), Some(12_000));
    }

    #[test]
    fn dataset_codec_roundtrip() {
        let data = gaussian_blobs(17, 5, 1.0, 2);
        let mut enc = Encoder::new();
        encode_dataset(&data, &mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = decode_dataset(&mut dec).unwrap();
        assert_eq!(back, data);
        dec.expect_end().unwrap();
    }

    #[test]
    fn reward_scheme_codec() {
        for s in [
            RewardScheme::ProportionalToRecords,
            RewardScheme::ShapleyExact,
            RewardScheme::ShapleyMonteCarlo { permutations: 99 },
        ] {
            assert_eq!(RewardScheme::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_spec().to_bytes();
        bytes[0] ^= 1;
        assert!(WorkloadSpec::from_bytes(&bytes).is_err());
    }
}
