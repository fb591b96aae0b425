//! Offline trace analysis: causal-DAG reconstruction and
//! critical-path profiling over a finished capture.
//!
//! A capture (ring entries or a JSONL file) is a flat, seq-ordered
//! stream of events that carry `span`/`trace`/`parent` ids. This module
//! rebuilds the causal DAG those ids describe and computes the numbers
//! an operator actually wants from a lifecycle run:
//!
//! - the **critical path** of each trace in simulated microseconds
//!   (greedy latest-finisher descent from the root, deterministic
//!   tie-breaking by event seq);
//! - a **per-domain** total/self time breakdown;
//! - **per-hop network latency** from `net/deliver` spans (`sent_us`
//!   field vs delivery stamp);
//! - **blocks-to-inclusion** and **submit-to-payout** distributions;
//! - **folded stacks** (flamegraph collapse format) keyed by span
//!   ancestry, weighted by self time.
//!
//! Everything is computed in *logical* time (see [`Stamp`]): simulated
//! microseconds directly, block heights and learning rounds scaled by
//! fixed factors ([`SIM_US_PER_BLOCK`], [`SIM_US_PER_ROUND`]). All
//! intermediate collections are ordered (`BTreeMap`, seq-sorted
//! vectors) and ties break on seq, so [`TraceAnalysis::render_text`]
//! and [`TraceAnalysis::report_digest`] are bit-identical across
//! reruns and ring-vs-JSONL capture of the same run.

use crate::jsonl::{RawEvent, Row};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::{EventKind, Stamp};
use pds2_crypto::sha256::Sha256;
use std::collections::{BTreeMap, BTreeSet};

/// Logical microseconds assigned to one block height when mapping
/// [`Stamp::Block`] onto the simulated-time axis (the chain's 12 s
/// between blocks).
pub const SIM_US_PER_BLOCK: u64 = 12_000_000;

/// Logical microseconds assigned to one learning round when mapping
/// [`Stamp::Round`] onto the simulated-time axis.
pub const SIM_US_PER_ROUND: u64 = 1_000_000;

/// One reconstructed span in the causal DAG.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span id.
    pub id: u64,
    /// Trace id (0 = untraced).
    pub trace: u64,
    /// Causal parent span id (0 = root/untraced).
    pub parent: u64,
    /// Subsystem.
    pub domain: String,
    /// Span name.
    pub name: String,
    /// Seq of the span-start event (the deterministic tie-breaker).
    pub start_seq: u64,
    /// Logical start, mapped onto the simulated-µs axis.
    pub start_us: u64,
    /// Logical end (== `start_us` for spans never closed or closed with
    /// `Stamp::None`).
    pub end_us: u64,
    /// Whether a span-end event was seen.
    pub closed: bool,
    /// Child span ids, in start-seq order.
    pub children: Vec<u64>,
    /// Point-event children: `(seq, domain, name, us)`.
    pub points: Vec<(u64, String, String, u64)>,
}

impl SpanNode {
    /// Wall (logical) duration.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One hop on a critical path.
#[derive(Clone, Debug)]
pub struct CriticalHop {
    /// Span id.
    pub span: u64,
    /// `domain/name` label.
    pub label: String,
    /// Span start on the simulated-µs axis.
    pub start_us: u64,
    /// Span end.
    pub end_us: u64,
}

/// Per-trace summary.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Trace id (== root span id).
    pub trace: u64,
    /// Root `domain/name`.
    pub root_label: String,
    /// Spans in the trace.
    pub span_count: usize,
    /// Point events in the trace.
    pub point_count: usize,
    /// Earliest span start.
    pub start_us: u64,
    /// Latest span end / point time.
    pub end_us: u64,
    /// Root-to-latest-leaf chain (greedy latest-finisher descent).
    pub critical_path: Vec<CriticalHop>,
}

impl TraceSummary {
    /// Critical-path length in simulated µs (root start to the last
    /// hop's end).
    pub fn critical_path_us(&self) -> u64 {
        match (self.critical_path.first(), self.critical_path.last()) {
            (Some(first), Some(last)) => last.end_us.saturating_sub(first.start_us),
            _ => 0,
        }
    }
}

/// Maps a stamp onto the simulated-µs axis; `None` stamps inherit
/// `fallback` (their causal predecessor's position).
fn stamp_us(stamp: Stamp, fallback: u64) -> u64 {
    match stamp {
        Stamp::None => fallback,
        Stamp::Sim(t) => t,
        Stamp::Block(h) => h.saturating_mul(SIM_US_PER_BLOCK),
        Stamp::Round(r) => r.saturating_mul(SIM_US_PER_ROUND),
    }
}

/// Exact quantile of a sorted sample: the value at rank `⌈q·n⌉`
/// (1-based), i.e. the smallest element with at least a `q` fraction of
/// the sample at or below it.
fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn render_dist(out: &mut String, label: &str, values: &mut [u64]) {
    values.sort_unstable();
    out.push_str(&format!("{label}: n={}", values.len()));
    if !values.is_empty() {
        out.push_str(&format!(
            " p50={} p90={} p99={} max={}",
            sorted_quantile(values, 0.50),
            sorted_quantile(values, 0.90),
            sorted_quantile(values, 0.99),
            values[values.len() - 1]
        ));
    }
    out.push('\n');
}

/// The reconstructed causal DAG plus every derived statistic.
#[derive(Clone, Debug, Default)]
pub struct TraceAnalysis {
    /// Total events analysed.
    pub events: u64,
    /// All spans by id.
    pub spans: BTreeMap<u64, SpanNode>,
    /// Point events outside any span: `(seq, domain, name, us)`.
    pub free_points: Vec<(u64, String, String, u64)>,
    /// Per-trace summaries, ordered by root start seq.
    pub traces: Vec<TraceSummary>,
    /// `net/deliver` one-hop latencies (µs), unsorted.
    pub hop_latencies_us: Vec<u64>,
    /// Blocks each included tx waited after submission.
    pub blocks_to_inclusion: Vec<u64>,
    /// Submit→payout times (µs) per completed workload trace.
    pub submit_to_payout_us: Vec<u64>,
}

impl TraceAnalysis {
    /// Analyses an event stream (must be seq-ordered, as captures are).
    pub fn from_events(events: &[RawEvent]) -> TraceAnalysis {
        let mut a = TraceAnalysis {
            events: events.len() as u64,
            ..TraceAnalysis::default()
        };
        // Pass 1: build span nodes (starts precede their children and
        // their own ends in seq order).
        for e in events {
            match e.kind {
                EventKind::SpanStart => {
                    let fallback = a.spans.get(&e.parent).map(|p| p.start_us).unwrap_or(0);
                    let start_us = stamp_us(e.stamp, fallback);
                    a.spans.insert(
                        e.span,
                        SpanNode {
                            id: e.span,
                            trace: e.trace,
                            parent: e.parent,
                            domain: e.domain.clone(),
                            name: e.name.clone(),
                            start_seq: e.seq,
                            start_us,
                            end_us: start_us,
                            closed: false,
                            children: Vec::new(),
                            points: Vec::new(),
                        },
                    );
                    // A span is never its own child: a hostile row that
                    // names itself as parent stays a childless node.
                    if e.parent != 0 && e.trace != 0 && e.parent != e.span {
                        let child = e.span;
                        if let Some(p) = a.spans.get_mut(&e.parent) {
                            p.children.push(child);
                        }
                    }
                }
                EventKind::SpanEnd => {
                    if let Some(node) = a.spans.get_mut(&e.span) {
                        node.end_us = stamp_us(e.stamp, node.start_us).max(node.start_us);
                        node.closed = true;
                    }
                }
                EventKind::Point => {
                    let fallback = a.spans.get(&e.parent).map(|p| p.start_us).unwrap_or(0);
                    let us = stamp_us(e.stamp, fallback);
                    let row = (e.seq, e.domain.clone(), e.name.clone(), us);
                    match a.spans.get_mut(&e.parent).filter(|_| e.parent != 0) {
                        Some(parent) => parent.points.push(row),
                        None => a.free_points.push(row),
                    }
                }
            }
            // Derived distributions read the raw event, not the DAG.
            if e.kind == EventKind::SpanStart && e.domain == "net" && e.name == "deliver" {
                if let Some(sent) = e.field_u64("sent_us") {
                    let at = stamp_us(e.stamp, sent);
                    a.hop_latencies_us.push(at.saturating_sub(sent));
                }
            }
            if e.kind == EventKind::Point && e.domain == "chain" && e.name == "tx.included" {
                if let Some(waited) = e.field_u64("blocks_waited") {
                    a.blocks_to_inclusion.push(waited);
                }
            }
        }
        // Unclosed spans extend to their last child/point activity so
        // critical paths through them are still meaningful.
        let reach: Vec<u64> = a
            .spans
            .values()
            .map(|s| {
                s.children
                    .iter()
                    .filter_map(|c| a.spans.get(c))
                    .map(|c| c.end_us)
                    .chain(s.points.iter().map(|p| p.3))
                    .max()
                    .unwrap_or(s.end_us)
            })
            .collect();
        for (node, child_max) in a.spans.values_mut().zip(reach) {
            if !node.closed {
                node.end_us = node.end_us.max(child_max);
            }
        }
        a.build_traces();
        a
    }

    /// Reads and analyses a JSONL capture file's contents.
    pub fn from_jsonl(body: &str) -> TraceAnalysis {
        let events: Vec<RawEvent> = body
            .lines()
            .filter_map(|l| Row::parse(l)?.event())
            .collect();
        TraceAnalysis::from_events(&events)
    }

    fn build_traces(&mut self) {
        let mut roots: Vec<u64> = self
            .spans
            .values()
            .filter(|s| s.trace != 0 && s.id == s.trace)
            .map(|s| s.id)
            .collect();
        roots.sort_by_key(|id| (self.spans[id].start_seq, *id));
        for root in roots {
            let members: Vec<&SpanNode> = self.spans.values().filter(|s| s.trace == root).collect();
            let span_count = members.len();
            let point_count = members.iter().map(|s| s.points.len()).sum();
            let start_us = members.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end_us = members
                .iter()
                .flat_map(|s| std::iter::once(s.end_us).chain(s.points.iter().map(|p| p.3)))
                .max()
                .unwrap_or(0);
            let root_label = format!("{}/{}", self.spans[&root].domain, self.spans[&root].name);
            let critical_path = self.critical_path(root);
            // Submit→payout: a workload root paired with a payout point
            // anywhere in its trace.
            if self.spans[&root].name == "workload.submit" {
                if let Some(pay) = members
                    .iter()
                    .flat_map(|s| s.points.iter())
                    .filter(|p| p.2 == "workload.payout")
                    .map(|p| p.3)
                    .max()
                {
                    self.submit_to_payout_us
                        .push(pay.saturating_sub(self.spans[&root].start_us));
                }
            }
            self.traces.push(TraceSummary {
                trace: root,
                root_label,
                span_count,
                point_count,
                start_us,
                end_us,
                critical_path,
            });
        }
    }

    /// Greedy latest-finisher descent: from the root, repeatedly step
    /// into the child span (or stop at a point) with the greatest end
    /// time, breaking ties toward the lowest seq. The resulting chain
    /// is the causal sequence that bounded the trace's makespan.
    fn critical_path(&self, root: u64) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut visited = BTreeSet::new();
        let mut cur = root;
        while let Some(node) = self.spans.get(&cur) {
            if !visited.insert(cur) {
                break;
            }
            path.push(CriticalHop {
                span: node.id,
                label: format!("{}/{}", node.domain, node.name),
                start_us: node.start_us,
                end_us: node.end_us,
            });
            // (end_us desc, start_seq asc) best child.
            let next = node
                .children
                .iter()
                .filter_map(|c| self.spans.get(c))
                .map(|c| (c.end_us, c.start_seq, c.id))
                .max_by(|a, b| (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1))));
            match next {
                Some((_, _, id)) => cur = id,
                None => break,
            }
        }
        path
    }

    /// Per-span self time: duration minus the summed durations of
    /// direct children (clamped at zero for overlapping children).
    fn self_us(&self, s: &SpanNode) -> u64 {
        let child_total: u64 = s
            .children
            .iter()
            .filter_map(|c| self.spans.get(c))
            .map(|c| c.duration_us())
            .sum();
        s.duration_us().saturating_sub(child_total)
    }

    /// Folded-stack (flamegraph collapse) lines: one
    /// `root;frame;…;leaf weight` row per distinct ancestry, weighted
    /// by self time in µs, lexicographically sorted. Pipe into any
    /// flamegraph renderer.
    pub fn render_folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in self.spans.values() {
            if s.trace == 0 {
                continue;
            }
            // Build the ancestry chain root→self, stopping where a
            // hostile capture's parent links loop back.
            let mut frames = Vec::new();
            let mut visited = BTreeSet::new();
            let mut cur = Some(s);
            while let Some(n) = cur {
                if !visited.insert(n.id) {
                    break;
                }
                frames.push(format!("{}/{}", n.domain, n.name));
                cur = if n.parent != 0 {
                    self.spans.get(&n.parent)
                } else {
                    None
                };
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_insert(0) += self.self_us(s);
        }
        let mut out = String::new();
        for (stack, weight) in &stacks {
            out.push_str(&format!("{stack} {weight}\n"));
        }
        out
    }

    /// Reconstructs a metrics snapshot from the DAG (per-domain span
    /// counters, latency histograms) for Prometheus-style exposition by
    /// `obs_report` — the capture's registry is gone by analysis time,
    /// so the exposition is derived from the trace itself.
    pub fn to_metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let mut domain_spans: BTreeMap<String, u64> = BTreeMap::new();
        let mut domain_self: BTreeMap<String, u64> = BTreeMap::new();
        for s in self.spans.values() {
            *domain_spans.entry(s.domain.clone()).or_insert(0) += 1;
            *domain_self.entry(s.domain.clone()).or_insert(0) += self.self_us(s);
        }
        for (d, n) in domain_spans {
            snap.counters.insert(format!("trace.{d}.spans"), n);
        }
        for (d, us) in domain_self {
            snap.counters.insert(format!("trace.{d}.self_us"), us);
        }
        snap.counters
            .insert("trace.traces".into(), self.traces.len() as u64);
        snap.counters.insert("trace.events".into(), self.events);
        snap.histograms.insert(
            "trace.hop_latency_us".into(),
            HistogramSnapshot::from_values(&self.hop_latencies_us),
        );
        snap.histograms.insert(
            "trace.blocks_to_inclusion".into(),
            HistogramSnapshot::from_values(&self.blocks_to_inclusion),
        );
        snap.histograms.insert(
            "trace.submit_to_payout_us".into(),
            HistogramSnapshot::from_values(&self.submit_to_payout_us),
        );
        snap
    }

    /// The deterministic text report: per-trace critical paths,
    /// per-domain breakdown, latency distributions. Bit-identical
    /// across reruns/threads/sinks of the same run.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let total_points: usize =
            self.spans.values().map(|s| s.points.len()).sum::<usize>() + self.free_points.len();
        out.push_str(&format!(
            "pds2 obs_report\nevents={} spans={} points={} traces={}\n\n",
            self.events,
            self.spans.len(),
            total_points,
            self.traces.len()
        ));
        for t in &self.traces {
            out.push_str(&format!(
                "trace {:#018x} root={} spans={} points={} start_us={} end_us={} duration_us={}\n",
                t.trace,
                t.root_label,
                t.span_count,
                t.point_count,
                t.start_us,
                t.end_us,
                t.end_us.saturating_sub(t.start_us)
            ));
            out.push_str(&format!(
                "  critical path: {} us over {} hops\n",
                t.critical_path_us(),
                t.critical_path.len()
            ));
            for hop in &t.critical_path {
                out.push_str(&format!(
                    "    [{:>12}..{:>12}] {}  self={} us\n",
                    hop.start_us,
                    hop.end_us,
                    hop.label,
                    self.spans
                        .get(&hop.span)
                        .map(|s| self.self_us(s))
                        .unwrap_or(0)
                ));
            }
        }
        if !self.traces.is_empty() {
            out.push('\n');
        }
        out.push_str("per-domain (all spans):\n");
        let mut by_domain: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in self.spans.values() {
            let row = by_domain.entry(s.domain.as_str()).or_insert((0, 0, 0));
            row.0 += 1;
            row.1 += s.duration_us();
            row.2 += self.self_us(s);
        }
        for (d, (n, total, selfus)) in &by_domain {
            out.push_str(&format!(
                "  {d} spans={n} total_us={total} self_us={selfus}\n"
            ));
        }
        out.push('\n');
        render_dist(
            &mut out,
            "hop latency us (net/deliver)",
            &mut self.hop_latencies_us.clone(),
        );
        render_dist(
            &mut out,
            "blocks to inclusion",
            &mut self.blocks_to_inclusion.clone(),
        );
        render_dist(
            &mut out,
            "submit to payout us",
            &mut self.submit_to_payout_us.clone(),
        );
        out
    }

    /// SHA-256 of [`render_text`](TraceAnalysis::render_text) — one
    /// string to compare across reruns, thread counts and sinks.
    pub fn report_digest(&self) -> String {
        let mut h = Sha256::new();
        h.update(self.render_text().as_bytes());
        h.finalize().to_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as obs;
    use crate::{SinkKind, Value};

    /// Builds a tiny two-level trace and checks the DAG, critical path
    /// and folded stacks against hand-computed values.
    #[test]
    fn analysis_reconstructs_dag_and_critical_path() {
        let _g = obs::test_lock();
        let cap = obs::capture(SinkKind::Ring(usize::MAX));
        let root = obs::new_trace("market", "workload.submit", Stamp::Sim(100), vec![]);
        let fast = obs::span(
            "chain",
            "produce_block",
            Stamp::Sim(120),
            root.ctx(),
            vec![],
        );
        fast.finish(Stamp::Sim(200), vec![]);
        let slow = obs::span("net", "deliver", Stamp::Sim(150), root.ctx(), vec![]);
        obs::emit(
            "market",
            "workload.payout",
            Stamp::Sim(890),
            slow.ctx(),
            vec![],
        );
        slow.finish(Stamp::Sim(900), vec![]);
        root.finish(Stamp::Sim(1000), vec![]);
        let report = cap.finish();

        let events: Vec<RawEvent> = report.entries.iter().map(RawEvent::from).collect();
        let a = TraceAnalysis::from_events(&events);
        assert_eq!(a.traces.len(), 1);
        let t = &a.traces[0];
        assert_eq!(t.span_count, 3);
        assert_eq!(t.point_count, 1);
        assert_eq!(t.start_us, 100);
        assert_eq!(t.end_us, 1000);
        // Critical path: root (ends 1000) → slow deliver (ends 900);
        // length = root start 100 → last hop end 900.
        let labels: Vec<&str> = t.critical_path.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(labels, vec!["market/workload.submit", "net/deliver"]);
        assert_eq!(t.critical_path_us(), 800);
        // Self time: root 900 − (80 + 750) = 70.
        let folded = a.render_folded();
        assert!(folded.contains("market/workload.submit 70\n"), "{folded}");
        assert!(
            folded.contains("market/workload.submit;net/deliver 750\n"),
            "{folded}"
        );
        // Payout point at 890 − submit at 100.
        assert_eq!(a.submit_to_payout_us, vec![790]);
        // Deterministic digest across recomputation.
        assert_eq!(
            a.report_digest(),
            TraceAnalysis::from_events(&events).report_digest()
        );
    }

    /// Ring- and JSONL-sourced analyses of one run agree byte-for-byte.
    #[test]
    fn ring_and_jsonl_analyses_agree() {
        let _g = obs::test_lock();
        let run = || {
            let root = obs::new_trace("test", "job", Stamp::Sim(0), vec![]);
            let child = obs::span(
                "test",
                "step",
                Stamp::Sim(10),
                root.ctx(),
                vec![("i", Value::from(1u64))],
            );
            child.finish(Stamp::Sim(40), vec![]);
            root.finish(Stamp::Sim(50), vec![("ok", Value::from("yes"))]);
        };
        let cap = obs::capture(SinkKind::Ring(usize::MAX));
        run();
        let ring = cap.finish();
        let path = std::env::temp_dir().join("pds2_obs_report_unit.jsonl");
        let cap = obs::capture(SinkKind::Jsonl(path.clone()));
        run();
        let jsonl = cap.finish();
        assert_eq!(ring.digest, jsonl.digest);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let from_ring = TraceAnalysis::from_events(
            &ring.entries.iter().map(RawEvent::from).collect::<Vec<_>>(),
        );
        let from_jsonl = TraceAnalysis::from_jsonl(&body);
        assert_eq!(from_ring.render_text(), from_jsonl.render_text());
        assert_eq!(from_ring.report_digest(), from_jsonl.report_digest());
        assert_eq!(from_ring.render_folded(), from_jsonl.render_folded());
    }

    #[test]
    fn stamp_mapping_and_quantiles() {
        assert_eq!(stamp_us(Stamp::Block(2), 0), 2 * SIM_US_PER_BLOCK);
        assert_eq!(stamp_us(Stamp::Round(3), 0), 3 * SIM_US_PER_ROUND);
        assert_eq!(stamp_us(Stamp::None, 77), 77);
        let xs = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(sorted_quantile(&xs, 0.50), 5);
        assert_eq!(sorted_quantile(&xs, 0.90), 9);
        assert_eq!(sorted_quantile(&xs, 0.99), 10);
        assert_eq!(sorted_quantile(&[], 0.5), 0);
    }
}
