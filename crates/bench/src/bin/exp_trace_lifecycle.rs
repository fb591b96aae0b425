//! E16: causal tracing of a faulty marketplace lifecycle under chaos.
//!
//! Runs the shared [`pds2_bench::trace_scenario`] workload — a workload
//! healed by retry after a full executor crash, a second workload
//! aborted on its execution timeout, cross-node chain sync under
//! partition/crash/byzantine faults, and gossip learning under
//! corruption — and checks the tentpole acceptance criteria:
//!
//! - the capture digest is bit-identical across ring / JSONL / null
//!   sinks;
//! - the reconstructed critical-path report (text + report digest) is
//!   identical whether the DAG is rebuilt from the in-memory ring or
//!   re-parsed from the JSONL file;
//! - every trace has a non-empty critical path.
//!
//! Writes `trace_e16.jsonl` (the raw capture) for `obs_report` and
//! prints the text report. `--smoke` is accepted and runs the same
//! checks.
//!
//! Reproduce: `cargo run --release -p pds2-bench --bin exp_trace_lifecycle`

use pds2_bench::trace_scenario;
use pds2_obs as obs;
use pds2_obs::jsonl::RawEvent;
use pds2_obs::report::TraceAnalysis;

const SEED: u64 = 0xE16;

fn main() {
    let _g = obs::test_lock();

    // Reference run: ring capture, DAG from the in-memory events.
    let cap = obs::capture(obs::SinkKind::Ring(usize::MAX));
    trace_scenario::run(SEED);
    let ring_report = cap.finish();
    let ring_events: Vec<RawEvent> = ring_report.entries.iter().map(RawEvent::from).collect();
    let ring_analysis = TraceAnalysis::from_events(&ring_events);
    let ring_text = ring_analysis.render_text();

    // JSONL run: same scenario through the file sink, DAG re-parsed.
    let path = std::path::PathBuf::from("trace_e16.jsonl");
    let cap = obs::capture(obs::SinkKind::Jsonl(path.clone()));
    trace_scenario::run(SEED);
    let jsonl_report = cap.finish();
    let body = std::fs::read_to_string(&path).expect("jsonl capture written");
    let jsonl_analysis = TraceAnalysis::from_jsonl(&body);
    let jsonl_text = jsonl_analysis.render_text();

    assert_eq!(
        ring_report.digest, jsonl_report.digest,
        "ring vs JSONL sink changed the capture digest"
    );
    assert_eq!(
        ring_text, jsonl_text,
        "critical-path report differs between ring and JSONL reconstruction"
    );
    assert_eq!(
        ring_analysis.report_digest(),
        jsonl_analysis.report_digest()
    );
    assert!(
        !ring_analysis.traces.is_empty(),
        "scenario must mint traces"
    );
    for t in &ring_analysis.traces {
        assert!(
            !t.critical_path.is_empty(),
            "every trace needs a critical path: {}",
            t.root_label
        );
    }

    // Null-sink rerun: the digest is a pure function of the seed.
    let cap = obs::capture(obs::SinkKind::Null);
    trace_scenario::run(SEED);
    let null_digest = cap.finish().digest;
    assert_eq!(
        null_digest, ring_report.digest,
        "null-sink rerun changed the capture digest"
    );
    println!("null-sink digest={null_digest}");

    print!("{ring_text}");
    println!("report digest: {}", ring_analysis.report_digest());
    println!("capture digest: {}", ring_report.digest);
    println!(
        "events={} traces={} hops(total)={}",
        ring_report.events,
        ring_analysis.traces.len(),
        ring_analysis
            .traces
            .iter()
            .map(|t| t.critical_path.len())
            .sum::<usize>()
    );
    println!("wrote trace_e16.jsonl");
    println!("E16 OK: critical path bit-identical across ring, JSONL and null sinks");
}
