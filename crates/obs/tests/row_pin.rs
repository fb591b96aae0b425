//! Byte-for-byte pin of the JSONL capture format.
//!
//! `fixtures/row_pin.jsonl` was written by the code at `918a204`, when
//! `trace.rs`, `report.rs` and `sink.rs` each rendered their own rows;
//! [`scenario`] captured to JSONL must still produce exactly those
//! bytes. Rows 1025, 1035 and 1036 (the two checkpoints and the trailer)
//! were regenerated once, when a checkpoint became a sample of the trace
//! digest (PR 25); every event row and the digest itself held. Every line must be a fixed point of `Row::parse` → render,
//! and a ring capture of the same scenario, converted with
//! `RawEvent::from`, must render the same event lines: what the sink
//! writes, what the reader re-renders and what an in-memory analysis
//! sees are one format.

use pds2_obs as obs;
use pds2_obs::jsonl::{RawEvent, Row};
use pds2_obs::{SinkKind, Stamp, TraceCtx, Value};

const FIXTURE: &str = include_str!("fixtures/row_pin.jsonl");

/// Every `Value` variant, event kind and stamp, traced and untraced,
/// then enough ticks to close a full segment. No `-0.0`: its row does
/// not survive the parent's reader (`json_roundtrip.rs` has that case).
fn scenario() {
    obs::emit(
        "pin",
        "values",
        Stamp::None,
        TraceCtx::NONE,
        vec![
            ("u64", Value::U64(u64::MAX)),
            ("u128", Value::U128((1u128 << 64) + 7)),
            ("u128_max", Value::U128(u128::MAX)),
            ("i64_neg", Value::I64(i64::MIN)),
            ("i64_pos", Value::I64(42)),
            ("f_integral", Value::F64(3.0)),
            ("f_neg_integral", Value::F64(-7.0)),
            ("f_frac", Value::F64(0.1)),
            ("f_tiny", Value::F64(1.5e-7)),
            ("f_huge", Value::F64(1e300)),
            ("f_nan", Value::F64(f64::NAN)),
            ("f_inf", Value::F64(f64::INFINITY)),
            ("f_ninf", Value::F64(f64::NEG_INFINITY)),
            (
                "str",
                Value::Str("quote \" backslash \\ bell \u{7} newline \n καλημέρα ✓".into()),
            ),
            ("key \"quoted\"", Value::Str(String::new())),
        ],
    );
    let untraced = obs::span("pin", "untraced", Stamp::Sim(5), TraceCtx::NONE, Vec::new());
    obs::event!("pin", "inside", Stamp::Block(3), TraceCtx::NONE, "x" => 1u64);
    untraced.finish(Stamp::Sim(9), vec![("gas", Value::from(21u64))]);

    let root = obs::new_trace(
        "pin",
        "root",
        Stamp::Round(1),
        vec![("who", Value::from("consumer"))],
    );
    let child = obs::span("pin.child", "step", Stamp::Sim(10), root.ctx(), vec![]);
    obs::event!("pin", "traced_point", Stamp::Block(4), child.ctx(), "amount" => 10u128.pow(20));
    drop(child);
    root.finish(Stamp::Round(2), vec![]);

    for i in 0..obs::SEGMENT_EVENTS {
        obs::event!(
            "pin", "tick", Stamp::Sim(100 + i), TraceCtx::NONE, "i" => i, "half" => i as f64 / 2.0,
        );
    }
}

#[test]
fn jsonl_capture_matches_the_fixture_written_at_the_parent() {
    let _g = obs::test_lock();
    let path = std::env::temp_dir().join("pds2_obs_row_pin.jsonl");
    let cap = obs::capture(SinkKind::Jsonl(path.clone()));
    scenario();
    let report = cap.finish();
    let body = std::fs::read_to_string(&path).expect("sink wrote the capture");
    std::fs::remove_file(&path).ok();
    assert_eq!(report.segments.len(), 2, "one full segment, one partial");
    assert!(
        body == FIXTURE,
        "JSONL bytes moved; diff against the fixture"
    );
}

#[test]
fn every_fixture_line_is_a_fixed_point_of_parse_then_render() {
    let (mut events, mut checkpoints) = (0, 0);
    let lines: Vec<&str> = FIXTURE.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let rendered = match Row::parse(line) {
            Some(Row::Event(e)) => {
                events += 1;
                e.to_json()
            }
            Some(Row::Checkpoint(cp)) => {
                checkpoints += 1;
                cp.to_json()
            }
            Some(Row::Trailer) => {
                assert_eq!(i + 1, lines.len(), "the trailer is the last row");
                continue;
            }
            None => panic!("row {} does not parse: {line}", i + 1),
        };
        assert_eq!(rendered, *line, "row {}", i + 1);
    }
    assert_eq!(events, 9 + obs::SEGMENT_EVENTS);
    assert_eq!(checkpoints, 2);
    assert_eq!(events + checkpoints + 1, lines.len() as u64);
}

#[test]
fn ring_events_converted_with_raw_event_from_render_the_fixture_lines() {
    let _g = obs::test_lock();
    let cap = obs::capture(SinkKind::Ring(usize::MAX));
    scenario();
    let report = cap.finish();
    let pinned = FIXTURE
        .lines()
        .filter(|l| matches!(Row::parse(l), Some(Row::Event(_))));
    let mut compared = 0;
    for (event, line) in report.entries.iter().zip(pinned) {
        assert_eq!(event.to_json(), line);
        assert_eq!(RawEvent::from(event).to_json(), line);
        compared += 1;
    }
    assert_eq!(compared, report.events);
}
