//! `Event::to_json` round-trip coverage: every [`Value`] variant —
//! including strings that exercise the full JSON escape table — must
//! survive serialize → parse → re-serialize byte-identically, and every
//! line a JSONL sink writes must parse back as a structurally valid
//! event.
//!
//! The fuzz is seeded and deterministic (xorshift over a fixed seed), so
//! a failure is a unit-test failure, not a flake.

use pds2_obs as obs;
use pds2_obs::jsonl::{RawEvent, Row};
use pds2_obs::{SinkKind, Stamp, TraceCtx, Value};

fn parse_event(line: &str) -> RawEvent {
    Row::parse(line)
        .and_then(Row::event)
        .unwrap_or_else(|| panic!("line must parse as an event: {line}"))
}

/// xorshift64*: tiny deterministic generator, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Strings that hit every branch of the JSON escape table: quotes,
/// backslashes, the named control escapes, raw control bytes (\u00XX),
/// multi-byte UTF-8 and the empty string.
fn nasty_strings() -> Vec<String> {
    vec![
        String::new(),
        "plain".into(),
        "with \"quotes\" inside".into(),
        "back\\slash \\\" mix".into(),
        "newline\nand\ttab\rand\x0c\x08".into(),
        "\u{0}\u{1}\u{1f}".into(),
        "unicode: καλημέρα κόσμε ✓ 🦀".into(),
        "json-ish: {\"k\":[1,2]}".into(),
        "trailing backslash \\".into(),
    ]
}

fn random_value(rng: &mut Rng, strings: &[String]) -> Value {
    match rng.next() % 7 {
        0 => Value::U64(rng.next()),
        1 => Value::U128((rng.next() as u128) << 64 | rng.next() as u128),
        2 => Value::I64(rng.next() as i64),
        3 => {
            // Finite floats only here; non-finite are covered separately.
            let f = (rng.next() as i64 as f64) / ((rng.next() % 1000 + 1) as f64);
            Value::F64(f)
        }
        4 => Value::F64((rng.next() % 1_000_000) as f64), // integral float
        // Negative zero prints `-0`, which no integer does.
        5 => Value::F64(-0.0),
        _ => Value::Str(strings[(rng.next() as usize) % strings.len()].clone()),
    }
}

fn random_stamp(rng: &mut Rng) -> Stamp {
    match rng.next() % 4 {
        0 => Stamp::None,
        1 => Stamp::Sim(rng.next()),
        2 => Stamp::Block(rng.next() % 1_000_000),
        _ => Stamp::Round(rng.next() % 10_000),
    }
}

/// 500 random events over all Value variants: `to_json` must parse back
/// and re-render byte-identically (the canonicalization fixed point).
#[test]
fn to_json_roundtrips_all_value_variants() {
    let _g = obs::test_lock();
    let strings = nasty_strings();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let cap = obs::capture(SinkKind::Ring(4096));
    for i in 0..500u64 {
        let n_fields = (rng.next() % 5) as usize;
        let fields: Vec<(&'static str, Value)> = (0..n_fields)
            .map(|j| {
                let key: &'static str = ["a", "b", "c", "d", "e"][j];
                (key, random_value(&mut rng, &strings))
            })
            .collect();
        match i % 3 {
            0 => obs::emit(
                "fuzz",
                "point",
                random_stamp(&mut rng),
                TraceCtx::NONE,
                fields,
            ),
            1 => {
                let s = obs::span(
                    "fuzz",
                    "spanned",
                    random_stamp(&mut rng),
                    TraceCtx::NONE,
                    Vec::new(),
                );
                s.finish(random_stamp(&mut rng), fields);
            }
            _ => {
                let root = obs::new_trace("fuzz", "rooted", random_stamp(&mut rng), fields);
                obs::event!("fuzz", "child", Stamp::Sim(i), root.ctx(), "i" => i);
                root.finish(Stamp::Sim(i + 1), Vec::new());
            }
        }
    }
    let report = cap.finish();
    assert!(report.events >= 500);
    for event in &report.entries {
        let line = event.to_json();
        let parsed = parse_event(&line);
        assert_eq!(
            parsed.to_json(),
            line,
            "parse→render must be the identity on sink output"
        );
        assert_eq!(parsed.span, event.span);
        assert_eq!(parsed.trace, event.trace);
        assert_eq!(parsed.parent, event.parent);
        assert_eq!(parsed.fields.len(), event.fields.len());
    }
}

/// Non-finite floats serialize as quoted strings (JSON has no NaN/inf
/// literal) and still round-trip through the parser; so does negative
/// zero, which prints `-0` and must not come back as the integer 0.
#[test]
fn non_finite_floats_survive_as_strings() {
    let _g = obs::test_lock();
    let cap = obs::capture(SinkKind::Ring(64));
    obs::emit(
        "fuzz",
        "weird",
        Stamp::Sim(1),
        TraceCtx::NONE,
        vec![
            ("nan", Value::F64(f64::NAN)),
            ("inf", Value::F64(f64::INFINITY)),
            ("ninf", Value::F64(f64::NEG_INFINITY)),
            ("nzero", Value::F64(-0.0)),
        ],
    );
    let report = cap.finish();
    let line = report.entries[0].to_json();
    let parsed = parse_event(&line);
    assert_eq!(parsed.to_json(), line);
    assert_eq!(parsed.fields.len(), 4);
}

/// Every line the JSONL sink writes is one complete, parseable event —
/// no interleaving, no partial lines, no escape leaks — and the parsed
/// stream carries the same seq sequence the ring capture saw.
#[test]
fn jsonl_sink_lines_are_individually_valid() {
    let _g = obs::test_lock();
    let strings = nasty_strings();
    let run = |strings: &[String]| {
        for (i, s) in strings.iter().enumerate() {
            obs::event!(
                "fuzz",
                "line",
                Stamp::Sim(i as u64),
                TraceCtx::NONE,
                "s" => s.clone(),
                "i" => i as u64,
            );
        }
        let span = obs::span("fuzz", "wrap", Stamp::Sim(99), TraceCtx::NONE, Vec::new());
        span.finish(
            Stamp::Sim(100),
            vec![("s", Value::from(strings[4].clone()))],
        );
    };

    let cap = obs::capture(SinkKind::Ring(1024));
    run(&strings);
    let ring = cap.finish();

    let path = std::env::temp_dir().join("pds2_obs_jsonl_validity.jsonl");
    let cap = obs::capture(SinkKind::Jsonl(path.clone()));
    run(&strings);
    let jsonl = cap.finish();
    let body = std::fs::read_to_string(&path).expect("sink wrote file");
    std::fs::remove_file(&path).ok();

    assert_eq!(ring.digest, jsonl.digest);
    // Checkpoint and trailer rows are metadata, not events.
    let lines: Vec<&str> = body
        .lines()
        .filter(|l| matches!(Row::parse(l), Some(Row::Event(_))))
        .collect();
    assert_eq!(lines.len() as u64, jsonl.events, "one event line per event");
    for (line, expect) in lines.iter().zip(&ring.entries) {
        let parsed = parse_event(line);
        assert_eq!(parsed.seq, expect.seq);
        assert_eq!(parsed.domain, expect.domain);
        assert_eq!(parsed.name, expect.name);
        // The file line must equal the in-memory event's serialization.
        assert_eq!(*line, expect.to_json());
    }
}
