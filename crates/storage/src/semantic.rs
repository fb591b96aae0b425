//! Semantic metadata, ontology reasoning and workload preconditions
//! (§IV-C "Data Discovery and Filtering").
//!
//! Providers annotate datasets with machine-readable metadata; workloads
//! carry predicates over that metadata. A small ontology (class taxonomy
//! with subsumption) lets a requirement for `sensor/environment` match a
//! record annotated `sensor/environment/temperature` — "automated
//! reasoning on the contents of the data and their relationships".
//!
//! The §IV-C trade-off — "between the amount of information leaked by the
//! metadata and the complexity of the verifiable requirements" — is made
//! measurable: every attribute carries a *detail rank*, providers publish
//! metadata redacted to a chosen detail level, and [`Metadata::leakage_bits`]
//! estimates how much the published view reveals. Experiment E10 sweeps
//! the detail level and reports matching precision/recall vs leakage.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use std::collections::BTreeMap;

/// A class taxonomy: `child -> parent` edges over slash-separated names.
///
/// Classes are identified by path-like strings (`"sensor/environment/
/// temperature"`); a class is a subclass of every prefix of its path.
#[derive(Clone, Debug, Default)]
pub struct Ontology {
    known: std::collections::BTreeSet<String>,
}

impl Ontology {
    /// An empty ontology (path-prefix subsumption still works).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a class (and implicitly all its path prefixes).
    pub fn declare(&mut self, class: &str) {
        let mut acc = String::new();
        for part in class.split('/') {
            if !acc.is_empty() {
                acc.push('/');
            }
            acc.push_str(part);
            self.known.insert(acc.clone());
        }
    }

    /// Number of declared classes (used in leakage estimation).
    pub fn class_count(&self) -> usize {
        self.known.len()
    }

    /// True iff `child` is `parent` or a (transitive) subclass of it.
    pub fn is_subclass(&self, child: &str, parent: &str) -> bool {
        child == parent || is_path_prefix(parent, child)
    }
}

fn is_path_prefix(parent: &str, child: &str) -> bool {
    child.len() > parent.len()
        && child.starts_with(parent)
        && child.as_bytes()[parent.len()] == b'/'
}

/// A metadata attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetaValue {
    /// Free-text value.
    Str(String),
    /// Numeric value.
    Num(f64),
    /// Ontology class reference.
    Class(String),
}

impl Encode for MetaValue {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MetaValue::Str(s) => {
                enc.put_u8(0);
                enc.put_str(s);
            }
            MetaValue::Num(v) => {
                enc.put_u8(1);
                enc.put_f64(*v);
            }
            MetaValue::Class(c) => {
                enc.put_u8(2);
                enc.put_str(c);
            }
        }
    }
}

impl Decode for MetaValue {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(MetaValue::Str(dec.get_str()?)),
            1 => Ok(MetaValue::Num(dec.get_f64()?)),
            2 => Ok(MetaValue::Class(dec.get_str()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// One metadata attribute: value plus a detail rank controlling when it is
/// published (rank 0 = always public, higher = more sensitive).
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    /// The value.
    pub value: MetaValue,
    /// Detail rank: the attribute appears in views of level >= rank.
    pub detail_rank: u8,
}

/// A dataset's semantic annotations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metadata {
    attrs: BTreeMap<String, Attribute>,
}

impl Metadata {
    /// Empty metadata.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an attribute with a detail rank (builder style).
    pub fn with(mut self, key: &str, value: MetaValue, detail_rank: u8) -> Self {
        self.attrs
            .insert(key.to_string(), Attribute { value, detail_rank });
        self
    }

    /// Looks up an attribute value.
    pub fn get(&self, key: &str) -> Option<&MetaValue> {
        self.attrs.get(key).map(|a| &a.value)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The published view at a given detail level: only attributes with
    /// `detail_rank <= level` survive.
    pub fn redact(&self, level: u8) -> Metadata {
        Metadata {
            attrs: self
                .attrs
                .iter()
                .filter(|(_, a)| a.detail_rank <= level)
                .map(|(k, a)| (k.clone(), a.clone()))
                .collect(),
        }
    }

    /// Rough information content of the published view, in bits: the
    /// quantity the §IV-C trade-off balances against matchability.
    pub fn leakage_bits(&self, ontology: &Ontology) -> f64 {
        self.attrs
            .values()
            .map(|a| match &a.value {
                // A class reveals ~log2(#classes) bits.
                MetaValue::Class(_) => (ontology.class_count().max(2) as f64).log2(),
                // A numeric attribute published at full precision: ~16 bits
                // of useful range in practice.
                MetaValue::Num(_) => 16.0,
                // Free text: estimate from length (4 bits/char, capped).
                MetaValue::Str(s) => (s.len() as f64 * 4.0).min(64.0),
            })
            .sum()
    }
}

/// A workload precondition over metadata.
#[derive(Clone, Debug, PartialEq)]
pub enum Requirement {
    /// Attribute `attr` must reference `class` or a subclass of it.
    HasClass {
        /// Attribute name.
        attr: String,
        /// Required (super)class.
        class: String,
    },
    /// Numeric attribute within `[min, max]`.
    NumInRange {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// String attribute equals a value exactly.
    StrEquals {
        /// Attribute name.
        attr: String,
        /// Expected value.
        value: String,
    },
    /// Attribute merely present.
    Exists {
        /// Attribute name.
        attr: String,
    },
    /// All sub-requirements hold.
    All(Vec<Requirement>),
    /// Any sub-requirement holds.
    Any(Vec<Requirement>),
    /// Sub-requirement does not hold.
    Not(Box<Requirement>),
}

impl Requirement {
    /// Evaluates the requirement against (published) metadata.
    pub fn matches(&self, meta: &Metadata, ontology: &Ontology) -> bool {
        match self {
            Requirement::HasClass { attr, class } => match meta.get(attr) {
                Some(MetaValue::Class(c)) => ontology.is_subclass(c, class),
                _ => false,
            },
            Requirement::NumInRange { attr, min, max } => match meta.get(attr) {
                Some(MetaValue::Num(v)) => *v >= *min && *v <= *max,
                _ => false,
            },
            Requirement::StrEquals { attr, value } => match meta.get(attr) {
                Some(MetaValue::Str(s)) => s == value,
                _ => false,
            },
            Requirement::Exists { attr } => meta.get(attr).is_some(),
            Requirement::All(reqs) => reqs.iter().all(|r| r.matches(meta, ontology)),
            Requirement::Any(reqs) => reqs.iter().any(|r| r.matches(meta, ontology)),
            Requirement::Not(r) => !r.matches(meta, ontology),
        }
    }

    /// Number of atomic predicates (complexity measure for E10).
    pub fn complexity(&self) -> usize {
        match self {
            Requirement::All(reqs) | Requirement::Any(reqs) => {
                reqs.iter().map(|r| r.complexity()).sum()
            }
            Requirement::Not(r) => r.complexity(),
            _ => 1,
        }
    }
}

impl Encode for Requirement {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Requirement::HasClass { attr, class } => {
                enc.put_u8(0);
                enc.put_str(attr);
                enc.put_str(class);
            }
            Requirement::NumInRange { attr, min, max } => {
                enc.put_u8(1);
                enc.put_str(attr);
                enc.put_f64(*min);
                enc.put_f64(*max);
            }
            Requirement::StrEquals { attr, value } => {
                enc.put_u8(2);
                enc.put_str(attr);
                enc.put_str(value);
            }
            Requirement::Exists { attr } => {
                enc.put_u8(3);
                enc.put_str(attr);
            }
            Requirement::All(reqs) => {
                enc.put_u8(4);
                enc.put_seq(reqs);
            }
            Requirement::Any(reqs) => {
                enc.put_u8(5);
                enc.put_seq(reqs);
            }
            Requirement::Not(r) => {
                enc.put_u8(6);
                r.encode(enc);
            }
        }
    }
}

/// How deep `Not` / `All` / `Any` may nest in a decoded requirement.
/// Decoding recurses once per level, so without a cap a run of `Not` tags
/// is a stack overflow instead of an error.
pub const MAX_NESTING: usize = 32;

impl Decode for Requirement {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_nested(dec, 0)
    }
}

impl Requirement {
    fn decode_nested(dec: &mut Decoder<'_>, depth: usize) -> Result<Self, DecodeError> {
        if depth > MAX_NESTING {
            return Err(DecodeError::Invalid("requirement nested too deep"));
        }
        let seq = |dec: &mut Decoder<'_>| {
            let len = dec.get_u64()?;
            // Each element needs at least one byte.
            let len = dec.bounded_count(len, 1)?;
            (0..len)
                .map(|_| Self::decode_nested(dec, depth + 1))
                .collect::<Result<Vec<_>, _>>()
        };
        match dec.get_u8()? {
            0 => Ok(Requirement::HasClass {
                attr: dec.get_str()?,
                class: dec.get_str()?,
            }),
            1 => Ok(Requirement::NumInRange {
                attr: dec.get_str()?,
                min: dec.get_f64()?,
                max: dec.get_f64()?,
            }),
            2 => Ok(Requirement::StrEquals {
                attr: dec.get_str()?,
                value: dec.get_str()?,
            }),
            3 => Ok(Requirement::Exists {
                attr: dec.get_str()?,
            }),
            4 => Ok(Requirement::All(seq(dec)?)),
            5 => Ok(Requirement::Any(seq(dec)?)),
            6 => Ok(Requirement::Not(Box::new(Self::decode_nested(
                dec,
                depth + 1,
            )?))),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.declare("sensor/environment/temperature");
        o.declare("sensor/environment/humidity");
        o.declare("sensor/motion/accelerometer");
        o.declare("wearable/heart-rate");
        o.declare("sensor/health");
        o
    }

    fn temp_meta() -> Metadata {
        Metadata::new()
            .with(
                "type",
                MetaValue::Class("sensor/environment/temperature".into()),
                0,
            )
            .with("sample-rate-hz", MetaValue::Num(1.0), 1)
            .with("region", MetaValue::Str("EU".into()), 1)
            .with("device-serial", MetaValue::Str("X9-123".into()), 3)
    }

    #[test]
    fn path_prefix_subsumption() {
        let o = ontology();
        assert!(o.is_subclass("sensor/environment/temperature", "sensor/environment"));
        assert!(o.is_subclass("sensor/environment/temperature", "sensor"));
        assert!(o.is_subclass("sensor", "sensor"));
        assert!(!o.is_subclass("sensor", "sensor/environment"));
        assert!(!o.is_subclass("sensor/motion/accelerometer", "sensor/environment"));
        // No accidental string-prefix matches.
        assert!(!o.is_subclass("sensors-other", "sensor"));
    }

    #[test]
    fn requirements_match_semantics() {
        let o = ontology();
        let m = temp_meta();
        let req = Requirement::All(vec![
            Requirement::HasClass {
                attr: "type".into(),
                class: "sensor/environment".into(),
            },
            Requirement::NumInRange {
                attr: "sample-rate-hz".into(),
                min: 0.5,
                max: 10.0,
            },
            Requirement::StrEquals {
                attr: "region".into(),
                value: "EU".into(),
            },
        ]);
        assert!(req.matches(&m, &o));
        assert_eq!(req.complexity(), 3);

        let wrong_region = Requirement::StrEquals {
            attr: "region".into(),
            value: "US".into(),
        };
        assert!(!wrong_region.matches(&m, &o));
        assert!(Requirement::Not(Box::new(wrong_region)).matches(&m, &o));
    }

    #[test]
    fn any_and_exists() {
        let o = ontology();
        let m = temp_meta();
        let req = Requirement::Any(vec![
            Requirement::Exists {
                attr: "nonexistent".into(),
            },
            Requirement::Exists {
                attr: "region".into(),
            },
        ]);
        assert!(req.matches(&m, &o));
    }

    #[test]
    fn missing_attribute_fails_closed() {
        let o = ontology();
        let m = Metadata::new();
        assert!(!Requirement::HasClass {
            attr: "type".into(),
            class: "sensor".into()
        }
        .matches(&m, &o));
        assert!(!Requirement::NumInRange {
            attr: "x".into(),
            min: 0.0,
            max: 1.0
        }
        .matches(&m, &o));
    }

    #[test]
    fn type_mismatch_fails_closed() {
        let o = ontology();
        let m = Metadata::new().with("type", MetaValue::Str("temperature".into()), 0);
        // A string is not a class reference.
        assert!(!Requirement::HasClass {
            attr: "type".into(),
            class: "sensor".into()
        }
        .matches(&m, &o));
    }

    #[test]
    fn redaction_removes_sensitive_attributes() {
        let m = temp_meta();
        let public = m.redact(0);
        assert_eq!(public.len(), 1);
        assert!(public.get("type").is_some());
        assert!(public.get("device-serial").is_none());
        let detailed = m.redact(3);
        assert_eq!(detailed.len(), 4);
    }

    #[test]
    fn leakage_grows_with_detail_level() {
        let o = ontology();
        let m = temp_meta();
        let l0 = m.redact(0).leakage_bits(&o);
        let l1 = m.redact(1).leakage_bits(&o);
        let l3 = m.redact(3).leakage_bits(&o);
        assert!(l0 < l1 && l1 < l3, "{l0} {l1} {l3}");
        assert!(l0 > 0.0);
    }

    #[test]
    fn redaction_affects_matching() {
        let o = ontology();
        let m = temp_meta();
        let req = Requirement::StrEquals {
            attr: "region".into(),
            value: "EU".into(),
        };
        // region has rank 1: invisible at level 0, matchable at level 1.
        assert!(!req.matches(&m.redact(0), &o));
        assert!(req.matches(&m.redact(1), &o));
    }

    #[test]
    fn requirement_codec_roundtrip() {
        let req = Requirement::All(vec![
            Requirement::HasClass {
                attr: "t".into(),
                class: "sensor".into(),
            },
            Requirement::Any(vec![
                Requirement::NumInRange {
                    attr: "r".into(),
                    min: 0.0,
                    max: 5.0,
                },
                Requirement::Not(Box::new(Requirement::Exists { attr: "x".into() })),
            ]),
        ]);
        let bytes = req.to_bytes();
        assert_eq!(Requirement::from_bytes(&bytes).unwrap(), req);
    }

    #[test]
    fn requirement_nesting_is_capped_on_decode() {
        let nested = |levels: usize| {
            let leaf = Requirement::Exists { attr: "x".into() };
            (0..levels).fold(leaf, |r, level| match level % 3 {
                0 => Requirement::Not(Box::new(r)),
                1 => Requirement::All(vec![r]),
                _ => Requirement::Any(vec![r]),
            })
        };
        let deepest = nested(MAX_NESTING);
        assert_eq!(Requirement::from_bytes(&deepest.to_bytes()), Ok(deepest));
        assert_eq!(
            Requirement::from_bytes(&nested(MAX_NESTING + 1).to_bytes()),
            Err(DecodeError::Invalid("requirement nested too deep"))
        );
        // Without the cap this is a stack overflow: one frame per `Not` tag.
        assert_eq!(
            Requirement::from_bytes(&vec![6u8; 1 << 20]),
            Err(DecodeError::Invalid("requirement nested too deep"))
        );
    }
}
