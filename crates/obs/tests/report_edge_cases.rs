//! `TraceAnalysis` must be total: malformed or degenerate captures —
//! empty, single-event, causally broken — analyse without panicking
//! and produce a stable `report_digest` (same input ⇒ same digest, so
//! degenerate traces still replay-check).

use pds2_obs as obs;
use pds2_obs::jsonl::Row;
use pds2_obs::report::TraceAnalysis;
use pds2_obs::{SinkKind, Stamp, TraceCtx};

fn analyse_twice(jsonl: &str) -> (String, String) {
    let a = TraceAnalysis::from_jsonl(jsonl);
    let b = TraceAnalysis::from_jsonl(jsonl);
    // Rendering paths must be total too, not just construction.
    let _ = a.render_text();
    let _ = a.render_folded();
    let _ = a.to_metrics_snapshot().render_prometheus();
    (a.report_digest(), b.report_digest())
}

#[test]
fn empty_capture_analyses_cleanly() {
    let (d1, d2) = analyse_twice("");
    assert_eq!(d1, d2, "empty-capture digest must be stable");
    let a = TraceAnalysis::from_jsonl("");
    assert_eq!(a.events, 0);
    assert!(a.traces.is_empty());
    assert!(a.spans.is_empty());
}

#[test]
fn single_event_trace_analyses_cleanly() {
    let _g = obs::test_lock();
    let cap = obs::capture(SinkKind::Ring(16));
    obs::event!("chain", "lonely", Stamp::Sim(7), TraceCtx::NONE, "x" => 1u64);
    let rep = cap.finish();
    assert_eq!(rep.events, 1);
    let jsonl = rep
        .entries
        .iter()
        .map(|e| e.to_json())
        .collect::<Vec<_>>()
        .join("\n");
    let (d1, d2) = analyse_twice(&jsonl);
    assert_eq!(d1, d2, "single-event digest must be stable");
    let a = TraceAnalysis::from_jsonl(&jsonl);
    assert_eq!(a.events, 1);
    assert_eq!(a.free_points.len(), 1, "a bare point joins no span");
    assert!(a.traces.is_empty(), "no root span, no trace");
}

#[test]
fn orphaned_parent_span_does_not_panic() {
    // A span-start whose parent id was never opened (e.g. the capture
    // began mid-trace, or a ring sink evicted the parent): the child
    // must still analyse, anchored at its own timestamps.
    let jsonl = [
        r#"{"seq":0,"kind":"span_start","domain":"market","name":"child","span":77309411329,"trace":424242,"parent":999999999,"sim_us":50}"#,
        r#"{"seq":1,"kind":"point","domain":"market","name":"step","span":0,"trace":424242,"parent":77309411329,"sim_us":60}"#,
        r#"{"seq":2,"kind":"span_end","domain":"market","name":"child","span":77309411329,"trace":424242,"parent":999999999,"sim_us":80}"#,
    ]
    .join("\n");
    let (d1, d2) = analyse_twice(&jsonl);
    assert_eq!(d1, d2, "orphan-parent digest must be stable");
    let a = TraceAnalysis::from_jsonl(&jsonl);
    assert_eq!(a.events, 3);
    assert_eq!(a.spans.len(), 1, "the orphaned child span itself exists");
    let span = a.spans.values().next().unwrap();
    assert_eq!(span.name, "child");
    assert_eq!(
        span.parent, 999999999,
        "the dangling parent id is preserved, not repaired"
    );
}

#[test]
fn degenerate_inputs_differ_in_digest() {
    // Stability is only meaningful if the digest also *separates*
    // different degenerate inputs.
    let single = r#"{"seq":0,"kind":"point","domain":"a","name":"x","span":0,"trace":0,"parent":0,"sim_us":1}"#;
    let a = TraceAnalysis::from_jsonl("");
    let b = TraceAnalysis::from_jsonl(single);
    assert_ne!(a.report_digest(), b.report_digest());
}

#[test]
fn a_line_nested_deeper_than_a_row_is_refused_without_using_the_stack() {
    // A row nests two objects deep. 100 000 levels recursed through
    // `value → object → value` would need far more than this thread has.
    const DEPTH: usize = 100_000;
    let hostile = format!("{}1{}", "{\"a\":".repeat(DEPTH), "}".repeat(DEPTH));
    let good = r#"{"seq":0,"kind":"point","domain":"a","name":"x","sim_us":1}"#;
    let body = format!(
        "{good}\n{hostile}\n{}",
        good.replace("\"seq\":0", "\"seq\":1")
    );
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            assert_eq!(Row::parse(&hostile), None);
            let a = TraceAnalysis::from_jsonl(&body);
            assert_eq!(a.events, 2, "the rows around the hostile line analyse");
            assert_eq!(a.free_points.len(), 2);
        })
        .expect("thread spawns")
        .join()
        .expect("no panic, and no stack overflow takes the process down");
}

#[test]
fn a_span_that_is_its_own_ancestor_still_analyses() {
    // One span naming itself as parent, and two spans naming each other:
    // the critical-path descent and the folded-stack ancestry walk must
    // each stop where they come back to a span they have seen.
    let own_parent = r#"{"seq":0,"kind":"span_start","domain":"a","name":"x","span":5,"trace":5,"parent":5,"sim_us":1}"#;
    let cycle = [
        r#"{"seq":0,"kind":"span_start","domain":"a","name":"x","span":7,"trace":9,"parent":6,"sim_us":1}"#,
        r#"{"seq":1,"kind":"span_start","domain":"a","name":"y","span":6,"trace":9,"parent":7,"sim_us":2}"#,
    ]
    .join("\n");
    // On a thread with a deadline: a walk that never stops must fail
    // the test, not hang it.
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let digests = [analyse_twice(own_parent), analyse_twice(&cycle)];
        let _ = done.send(digests);
    });
    let [(a1, a2), (b1, b2)] = finished
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the analysis returns");
    worker.join().expect("the analysis does not panic");
    assert_eq!((a1, b1), (a2, b2), "self-ancestry digests must be stable");
    let a = TraceAnalysis::from_jsonl(own_parent);
    assert_eq!(a.traces.len(), 1);
    assert_eq!(a.traces[0].critical_path.len(), 1, "the root, once");
}
