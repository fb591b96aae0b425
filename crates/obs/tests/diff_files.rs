//! File-backed divergence forensics: `diff::diff_files` must localize
//! a planted single-event delta between two JSONL captures to the
//! exact first divergent `seq`, reading only O(n/segment + segment)
//! event bodies, and must short-circuit identical files on checkpoints
//! alone.

use pds2_obs as obs;
use pds2_obs::diff::{self, Verdict};
use pds2_obs::jsonl::Row;
use pds2_obs::{SinkKind, Stamp, TraceCtx};
use std::path::Path;

fn capture_to(path: &Path, n: u64, intruder_at: Option<u64>) -> obs::TraceReport {
    let cap = obs::capture(SinkKind::Jsonl(path.to_path_buf()));
    for i in 0..n {
        obs::event!("chain", "tick", Stamp::Sim(i * 10), TraceCtx::NONE, "i" => i);
        if Some(i) == intruder_at {
            obs::event!("net", "intruder", Stamp::Sim(i * 10), TraceCtx::NONE);
        }
    }
    cap.finish()
}

#[test]
fn planted_delta_localized_to_exact_seq_with_bounded_reads() {
    let _g = obs::test_lock();
    let dir = std::env::temp_dir();
    let pa = dir.join("pds2_diff_a.jsonl");
    let pb = dir.join("pds2_diff_b.jsonl");
    // ~8 segments of events; the intruder lands in segment 6.
    let n = 8 * obs::SEGMENT_EVENTS + 100;
    let plant = 6 * obs::SEGMENT_EVENTS + 321;
    let a = capture_to(&pa, n, None);
    let b = capture_to(&pb, n, Some(plant));
    assert_ne!(a.digest, b.digest, "planted delta must change the digest");
    assert_eq!(a.segments.len(), 9, "8 full segments + 1 partial");

    let report = diff::diff_files(&pa, &pb, 3).expect("diff runs");
    // The intruder is emitted after event `plant`, so the first
    // divergent stream position is seq plant + 1.
    match &report.verdict {
        Verdict::DivergesAt {
            seq,
            segment,
            domain_a,
            name_a,
            domain_b,
            name_b,
        } => {
            assert_eq!(*seq, plant + 1, "exact first divergent seq");
            assert_eq!(*segment, 6, "divergence localized to its segment");
            assert_eq!((domain_a.as_str(), name_a.as_str()), ("chain", "tick"));
            assert_eq!((domain_b.as_str(), name_b.as_str()), ("net", "intruder"));
        }
        v => panic!("expected DivergesAt, got {v:?}"),
    }
    assert_eq!(report.classification, "cross-domain");
    assert!(report.bisected, "checkpointed files must bisect");
    // Bisection cost bound: only the divergent segment's bodies (both
    // sides) plus the context margin may be materialized.
    let bound = 2 * (obs::SEGMENT_EVENTS + 2 * 3 + 2);
    assert!(
        report.bodies_read <= bound,
        "bodies_read {} exceeds one-segment bound {bound}",
        report.bodies_read
    );
    assert!(
        report.checkpoints_compared as usize <= 2 + a.segments.len().ilog2() as usize + 1,
        "checkpoint compares must be logarithmic, got {}",
        report.checkpoints_compared
    );
    assert!(!report.context.is_empty(), "context window reported");
    assert!(report.to_json().contains("\"verdict\":\"diverges\""));

    // Identical captures: zero event bodies read.
    let pc = dir.join("pds2_diff_c.jsonl");
    let c = capture_to(&pc, n, None);
    assert_eq!(a.digest, c.digest);
    let same = diff::diff_files(&pa, &pc, 3).expect("diff runs");
    assert!(same.identical(), "{:?}", same.verdict);
    assert_eq!(same.bodies_read, 0, "identical files need no event bodies");

    // Strict prefix: B stops early, no event conflicts.
    let pd = dir.join("pds2_diff_d.jsonl");
    let d = capture_to(&pd, n / 2, None);
    assert!(!d.segments.is_empty());
    let prefix = diff::diff_files(&pa, &pd, 3).expect("diff runs");
    match &prefix.verdict {
        Verdict::PrefixOf {
            shorter,
            common_events,
        } => {
            assert!(shorter.ends_with("pds2_diff_d.jsonl"));
            assert_eq!(*common_events, n / 2);
        }
        v => panic!("expected PrefixOf, got {v:?}"),
    }

    for p in [pa, pb, pc, pd] {
        std::fs::remove_file(p).ok();
    }
}

/// A capture that lost a checkpoint row is damaged, and the diff says
/// so; it does not bisect the shifted chain and blame an intact
/// segment. A capture cut off at a segment boundary lost nothing it
/// still claims, and stays a prefix.
#[test]
fn damaged_checkpoint_chain_is_an_error_and_truncation_is_a_prefix() {
    let _g = obs::test_lock();
    let dir = std::env::temp_dir();
    let pa = dir.join("pds2_diff_damage_a.jsonl");
    let pb = dir.join("pds2_diff_damage_b.jsonl");
    let n = 5 * obs::SEGMENT_EVENTS;
    let a = capture_to(&pa, n, None);
    assert_eq!(a.segments.len(), 5);
    let body = std::fs::read_to_string(&pa).expect("capture written");

    // B = A with its `"checkpoint":1` row deleted: same events.
    let is_checkpoint_1 =
        |l: &&str| matches!(Row::parse(l), Some(Row::Checkpoint(cp)) if cp.index == 1);
    assert_eq!(body.lines().filter(is_checkpoint_1).count(), 1);
    let damaged: Vec<&str> = body.lines().filter(|l| !is_checkpoint_1(l)).collect();
    std::fs::write(&pb, damaged.join("\n") + "\n").expect("write damaged copy");
    for (x, y) in [(&pa, &pb), (&pb, &pa)] {
        let err = diff::diff_files(x, y, 3).expect_err("a damaged chain is not a verdict");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("pds2_diff_damage_b.jsonl") && msg.contains("checkpoint 1"),
            "the error names the file and the row it wanted: {msg}"
        );
    }

    // A checkpoint row that starts as one but does not parse.
    let torn = body.replacen("{\"checkpoint\":2,", "{\"checkpoint\":2,\"torn", 1);
    assert_ne!(torn, body);
    std::fs::write(&pb, torn).expect("write torn copy");
    let err = diff::diff_files(&pa, &pb, 3).expect_err("a torn checkpoint row is damage");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // B = A cut off after segment 1's checkpoint row: events, later
    // checkpoints and trailer all gone together.
    let keep = body
        .lines()
        .position(|l| is_checkpoint_1(&l))
        .expect("checkpoint 1 present");
    let truncated: Vec<&str> = body.lines().take(keep + 1).collect();
    std::fs::write(&pb, truncated.join("\n") + "\n").expect("write truncated copy");
    let prefix = diff::diff_files(&pa, &pb, 3).expect("a truncated capture still diffs");
    assert_eq!(
        prefix.verdict,
        Verdict::PrefixOf {
            shorter: pb.display().to_string(),
            common_events: 2 * obs::SEGMENT_EVENTS,
        }
    );
    assert_eq!(prefix.bodies_read, 0);

    for p in [pa, pb] {
        std::fs::remove_file(p).ok();
    }
}
