//! Divergence-forensics smoke (experiment E21): produce two JSONL
//! captures of the shared E16 trace scenario that differ by exactly one
//! planted event, then prove `pds2_obs::diff` localizes the delta to
//! the exact first divergent `seq` by bisecting the interleaved segment
//! checkpoints — without reading more than O(n/segment + segment) event
//! bodies.
//!
//! Writes (and leaves behind for CI artifact upload / the `obs_diff`
//! CLI step):
//!
//! * `trace_div_a.jsonl` / `trace_div_b.jsonl` — the two captures;
//! * `divergence_report.txt` / `divergence_report.json` — the verdict.
//!
//! `cargo run --release -p pds2-bench --bin exp_divergence`
//! `cargo run --release -p pds2-bench --bin exp_divergence -- --smoke`
//!   (CI mode: one scenario phase instead of two, same assertions)

use pds2_bench::trace_scenario;
use pds2_obs as obs;
use pds2_obs::diff::{self, Verdict};
use pds2_obs::jsonl::Row;
use std::path::{Path, PathBuf};

const SEEDS: [u64; 2] = [0xE21, 0xE22];

/// Runs the scenario phases into `path`, planting one extra `net` event
/// between phases when `plant` is set (mid-stream, so the delta lands
/// inside the checkpoint chain, not at its tail), and returns the
/// capture's report.
fn capture(path: &Path, phases: &[u64], plant: bool) -> obs::TraceReport {
    let cap = obs::capture(obs::SinkKind::Jsonl(path.to_path_buf()));
    let mut first = true;
    for &seed in phases {
        if !first && plant {
            obs::event!("net", "intruder", obs::Stamp::Sim(0), obs::TraceCtx::NONE, "planted" => 1u64);
        }
        first = false;
        trace_scenario::run(seed);
    }
    cap.finish()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let _g = obs::test_lock();
    // Always two phases (the plant must sit mid-stream); smoke repeats
    // the same seed, the full run varies it.
    let phases: &[u64] = if smoke { &[SEEDS[0], SEEDS[0]] } else { &SEEDS };

    let pa = PathBuf::from("trace_div_a.jsonl");
    let pb = PathBuf::from("trace_div_b.jsonl");
    println!(
        "exp_divergence: capturing baseline ({} phase(s)) ...",
        phases.len()
    );
    let a = capture(&pa, phases, false);
    println!(
        "  {} events, {} segments, digest {}",
        a.events,
        a.segments.len(),
        a.digest
    );
    println!("exp_divergence: capturing perturbed run (one planted event) ...");
    let b = capture(&pb, phases, true);
    println!(
        "  {} events, {} segments, digest {}",
        b.events,
        b.segments.len(),
        b.digest
    );
    assert_ne!(
        a.digest, b.digest,
        "the planted event must change the digest"
    );
    assert!(
        a.segments.len() >= 2,
        "scenario must span multiple segments, got {}",
        a.segments.len()
    );

    // Ground truth from the perturbed file itself: the planted event's
    // seq is the first stream position where the captures differ.
    let body_b = std::fs::read_to_string(&pb).expect("perturbed capture readable");
    let ground_truth = body_b
        .lines()
        .filter_map(|l| Row::parse(l)?.event())
        .find(|e| e.name == "intruder")
        .expect("planted event recorded")
        .seq;

    let report = diff::diff_files(&pa, &pb, 3).expect("diff runs");
    match &report.verdict {
        Verdict::DivergesAt { seq, segment, .. } => {
            println!(
                "exp_divergence: diverges at seq {seq} (segment {segment}), \
                 {} checkpoint compares, {} event bodies read",
                report.checkpoints_compared, report.bodies_read
            );
            assert_eq!(
                *seq, ground_truth,
                "bisected first divergent seq must match the planted event"
            );
        }
        v => panic!("expected DivergesAt, got {v:?}"),
    }
    assert!(report.bisected, "checkpointed captures must bisect");
    let bound = 2 * (obs::SEGMENT_EVENTS + 2 * 3 + 2);
    assert!(
        report.bodies_read <= bound,
        "bodies_read {} exceeds the one-segment bound {bound}",
        report.bodies_read
    );

    std::fs::write("divergence_report.txt", report.render_text())
        .expect("write divergence_report.txt");
    std::fs::write("divergence_report.json", report.to_json() + "\n")
        .expect("write divergence_report.json");
    println!(
        "wrote divergence_report.txt and divergence_report.json \
         (captures left in place for the obs_diff CLI)"
    );
}
