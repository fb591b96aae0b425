//! Divergence forensics over the trace digest's checkpoints.
//!
//! Two captures whose digests ([`TraceReport::digest`]) disagree differ
//! *somewhere*; this module finds the first place without replaying
//! either run or reading both event streams in full. The collector's
//! checkpoints ([`SegmentCheckpoint`]) sample its running hash chain
//! after every segment, so equal `chained` values at index `i` certify
//! that the entire event prefix through segment `i` is identical.
//! Mismatch is therefore *monotone* in `i`, and the first divergent
//! segment is found by binary search over checkpoints — O(log n) digest
//! compares — after which only that one segment's event bodies (≤
//! [`SEGMENT_EVENTS`](crate::SEGMENT_EVENTS) per side) are materialized
//! and compared to name the exact first divergent `seq`.
//!
//! This is the in-repo seed of ROADMAP item 1's checkpoint fraud proof:
//! a committee signs a capture's digest; a challenger who disagrees
//! bisects the checkpoints and opens a single segment instead of
//! replaying the side-chain.

use crate::jsonl::{self, push_quoted, Row};
use crate::trace::SegmentCheckpoint;
use crate::TraceReport;
use pds2_crypto::sha256::Digest;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One event row of one side: its `seq` and the line. Sides hold them
/// in ascending `seq`.
type SeqRow = (u64, String);

/// Where one side of a diff comes from. Either kind yields a label, the
/// checkpoint chain, and the event rows of one `seq` range.
enum Source<'a> {
    /// A JSONL capture on disk. Each of the two questions is one pass
    /// over the file, and neither parses an event body it does not
    /// keep.
    File(&'a Path),
    /// A finished in-process capture and the name to report it under.
    Report(&'a TraceReport, &'a str),
}

impl Source<'_> {
    fn label(&self) -> String {
        match self {
            Source::File(path) => path.display().to_string(),
            Source::Report(_, label) => label.to_string(),
        }
    }

    /// The checkpoint chain. A file's chain is checked as it is read: a
    /// row that is no row of the format, or a checkpoint whose index is
    /// not its position, means rows are damaged or missing, and
    /// bisecting what is left would blame a segment that is intact.
    fn checkpoints(&self) -> io::Result<Vec<SegmentCheckpoint>> {
        let path = match self {
            Source::File(path) => path,
            Source::Report(report, _) => return Ok(report.segments.clone()),
        };
        let mut chain = Vec::new();
        for (at, line) in BufReader::new(std::fs::File::open(path)?)
            .lines()
            .enumerate()
        {
            let line = line?;
            if jsonl::peek_seq(&line).is_some() {
                continue;
            }
            match Row::parse(&line) {
                Some(Row::Checkpoint(cp)) if cp.index == chain.len() as u64 => chain.push(cp),
                Some(Row::Event(_) | Row::Trailer) => {}
                Some(Row::Checkpoint(_)) | None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: row {} is neither an event, the trailer nor checkpoint {}: \
                             the checkpoint chain is damaged",
                            path.display(),
                            at + 1,
                            chain.len()
                        ),
                    ))
                }
            }
        }
        Ok(chain)
    }

    /// The event rows with `lo <= seq <= hi`.
    fn rows(&self, lo: u64, hi: u64) -> io::Result<Vec<SeqRow>> {
        let within = |seq: &u64| (lo..=hi).contains(seq);
        match self {
            Source::File(path) => {
                let mut rows = Vec::new();
                for line in BufReader::new(std::fs::File::open(path)?).lines() {
                    let line = line?;
                    if let Some(seq) = jsonl::peek_seq(&line).filter(within) {
                        rows.push((seq, line));
                    }
                }
                Ok(rows)
            }
            Source::Report(report, _) => Ok(report
                .entries
                .iter()
                .filter(|e| within(&e.seq))
                .map(|e| (e.seq, e.to_json()))
                .collect()),
        }
    }
}

/// What the diff concluded, machine-readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Same events, same digests.
    Identical,
    /// First divergent event named exactly.
    DivergesAt {
        /// `seq` of the first event that differs between the captures.
        seq: u64,
        /// Segment index the divergence falls in.
        segment: u64,
        /// `domain` of capture A's event at `seq` (empty if absent).
        domain_a: String,
        /// `name` of capture A's event at `seq` (empty if absent).
        name_a: String,
        /// `domain` of capture B's event at `seq` (empty if absent).
        domain_b: String,
        /// `name` of capture B's event at `seq` (empty if absent).
        name_b: String,
    },
    /// One capture is a strict event-prefix of the other: no event
    /// disagrees, one side simply stops early.
    PrefixOf {
        /// Label of the shorter capture.
        shorter: String,
        /// Events both captures share (= the shorter side's length).
        common_events: u64,
    },
    /// A segment's checkpoints disagree but every rendered event row
    /// matches: the divergence is in the canonical binary encoding only
    /// (e.g. a field changed integer width without changing its printed
    /// value).
    DigestOnly {
        /// Segment index whose checkpoints disagree.
        segment: u64,
    },
}

/// One event row in the ±k context window around a divergence.
#[derive(Clone, Debug)]
pub struct ContextLine {
    /// Event `seq`.
    pub seq: u64,
    /// Capture A's row at this seq (canonical JSON), if present.
    pub a: Option<String>,
    /// Capture B's row at this seq (canonical JSON), if present.
    pub b: Option<String>,
    /// Whether this is the first divergent row.
    pub divergent: bool,
}

/// Full result of diffing two captures.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Label of capture A (file path or supplied name).
    pub label_a: String,
    /// Label of capture B.
    pub label_b: String,
    /// The conclusion.
    pub verdict: Verdict,
    /// ±k event rows around the divergence (empty when identical).
    pub context: Vec<ContextLine>,
    /// Domain classification: the divergent event's domain, or
    /// `"cross-domain"` when the two sides disagree on it, or empty.
    pub classification: String,
    /// Checkpoint digests compared during bisection.
    pub checkpoints_compared: u64,
    /// Event bodies materialized across both sides — the cost the
    /// bisection bounds to O(n/segment + segment).
    pub bodies_read: u64,
    /// Whether checkpoint bisection was used (false = linear fallback
    /// because at least one capture carried no checkpoints).
    pub bisected: bool,
}

impl DiffReport {
    /// Whether the captures were identical.
    pub fn identical(&self) -> bool {
        self.verdict == Verdict::Identical
    }

    /// The first divergent `seq`, if any (prefix divergence reports the
    /// first seq present on only one side).
    pub fn divergent_seq(&self) -> Option<u64> {
        match &self.verdict {
            Verdict::Identical => None,
            Verdict::DivergesAt { seq, .. } => Some(*seq),
            Verdict::PrefixOf { common_events, .. } => Some(*common_events),
            Verdict::DigestOnly { .. } => None,
        }
    }

    /// One-line JSON verdict for machine consumption (CI, harnesses).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"verdict\":");
        match &self.verdict {
            Verdict::Identical => s.push_str("\"identical\""),
            Verdict::DivergesAt {
                seq,
                segment,
                domain_a,
                name_a,
                domain_b,
                name_b,
            } => {
                s.push_str(&format!("\"diverges\",\"seq\":{seq},\"segment\":{segment}"));
                for (key, val) in [
                    ("domain_a", domain_a),
                    ("name_a", name_a),
                    ("domain_b", domain_b),
                    ("name_b", name_b),
                ] {
                    s.push_str(&format!(",\"{key}\":"));
                    push_quoted(val, &mut s);
                }
            }
            Verdict::PrefixOf {
                shorter,
                common_events,
            } => {
                s.push_str(&format!("\"prefix\",\"common_events\":{common_events}"));
                s.push_str(",\"shorter\":");
                push_quoted(shorter, &mut s);
            }
            Verdict::DigestOnly { segment } => {
                s.push_str(&format!("\"digest_only\",\"segment\":{segment}"));
            }
        }
        if !self.classification.is_empty() {
            s.push_str(",\"classification\":");
            push_quoted(&self.classification, &mut s);
        }
        s.push_str(&format!(
            ",\"checkpoints_compared\":{},\"bodies_read\":{},\"bisected\":{}}}",
            self.checkpoints_compared, self.bodies_read, self.bisected
        ));
        s
    }

    /// Human-readable report with the context window.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "obs_diff: A = {}\n          B = {}\n",
            self.label_a, self.label_b
        ));
        match &self.verdict {
            Verdict::Identical => out.push_str("verdict: identical\n"),
            Verdict::DivergesAt {
                seq,
                segment,
                domain_a,
                name_a,
                domain_b,
                name_b,
            } => {
                out.push_str(&format!(
                    "verdict: first divergence at seq {seq} (segment {segment}, domain {})\n",
                    self.classification
                ));
                out.push_str(&format!("  A: {domain_a}.{name_a}\n"));
                out.push_str(&format!("  B: {domain_b}.{name_b}\n"));
            }
            Verdict::PrefixOf {
                shorter,
                common_events,
            } => out.push_str(&format!(
                "verdict: {shorter} is a strict prefix ({common_events} common events)\n"
            )),
            Verdict::DigestOnly { segment } => out.push_str(&format!(
                "verdict: segment {segment} digests disagree but all rendered rows match \
                 (binary-encoding-level divergence; compare raw captures)\n"
            )),
        }
        out.push_str(&format!(
            "cost: {} checkpoint compares, {} event bodies read ({})\n",
            self.checkpoints_compared,
            self.bodies_read,
            if self.bisected {
                "bisected"
            } else {
                "linear fallback: no checkpoints"
            }
        ));
        if !self.context.is_empty() {
            out.push_str("context:\n");
            for line in &self.context {
                let marker = if line.divergent { ">>" } else { "  " };
                match (&line.a, &line.b) {
                    (Some(a), Some(b)) if a == b => {
                        out.push_str(&format!("{marker} {:>8}  = {a}\n", line.seq));
                    }
                    (a, b) => {
                        out.push_str(&format!(
                            "{marker} {:>8}  A {}\n",
                            line.seq,
                            a.as_deref().unwrap_or("<absent>")
                        ));
                        out.push_str(&format!(
                            "{marker} {:>8}  B {}\n",
                            "",
                            b.as_deref().unwrap_or("<absent>")
                        ));
                    }
                }
            }
        }
        out
    }
}

/// First index in `0..n` at which `differs` holds, given that it is
/// monotone (once two chained lists part, every later entry differs
/// too), by binary search. Returns the index, `None` when all `n`
/// agree, and the number of probes made.
fn first_mismatch(n: usize, differs: impl Fn(usize) -> bool) -> (Option<usize>, u64) {
    if n == 0 {
        return (None, 0);
    }
    let mut probes = 1;
    if !differs(n - 1) {
        return (None, probes);
    }
    let (mut lo, mut hi) = (0, n - 1); // invariant: differs(hi)
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if differs(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (Some(lo), probes)
}

/// First position in `[lo, hi]` where the two sides' rows disagree, as
/// `(seq, row_a, row_b)`, a side that has run out giving `None`; `None`
/// when every row matches and both sides end together.
fn first_divergent_row<'r>(
    a: &'r [SeqRow],
    b: &'r [SeqRow],
    lo: u64,
    hi: u64,
) -> Option<(u64, Option<&'r str>, Option<&'r str>)> {
    let within = |side: &'r [SeqRow]| side.iter().filter(move |(seq, _)| (lo..=hi).contains(seq));
    let (mut rows_a, mut rows_b) = (within(a), within(b));
    loop {
        match (rows_a.next(), rows_b.next()) {
            (None, None) => return None,
            (Some(ra), Some(rb)) if ra == rb => {}
            (ra, rb) => {
                let seq = ra.iter().chain(&rb).map(|(seq, _)| *seq).min()?;
                let row = |r: Option<&'r SeqRow>| r.map(|(_, line)| line.as_str());
                return Some((seq, row(ra), row(rb)));
            }
        }
    }
}

fn context_window(a: &[SeqRow], b: &[SeqRow], seq: u64, k: u64) -> Vec<ContextLine> {
    let find = |side: &[SeqRow], s: u64| -> Option<String> {
        side.iter()
            .find(|(seq, _)| *seq == s)
            .map(|(_, line)| line.clone())
    };
    (seq.saturating_sub(k)..=seq.saturating_add(k))
        .filter_map(|s| {
            let (ra, rb) = (find(a, s), find(b, s));
            if ra.is_none() && rb.is_none() {
                return None;
            }
            Some(ContextLine {
                seq: s,
                a: ra,
                b: rb,
                divergent: s == seq,
            })
        })
        .collect()
}

fn classify(domain_a: &str, domain_b: &str) -> String {
    match (domain_a.is_empty(), domain_b.is_empty()) {
        (true, true) => String::new(),
        (false, true) => domain_a.to_string(),
        (true, false) => domain_b.to_string(),
        (false, false) if domain_a == domain_b => domain_a.to_string(),
        _ => "cross-domain".to_string(),
    }
}

/// `(domain, name)` of an event row; empty for a row that does not parse.
fn names(row: &str) -> (String, String) {
    match Row::parse(row).and_then(Row::event) {
        Some(e) => (e.domain, e.name),
        None => Default::default(),
    }
}

/// Compares the loaded rows over `[lo, hi]` and fills in the verdict.
/// `segment` is the segment whose digests disagreed, `None` when the
/// whole streams are compared row by row.
fn diff_sides(
    mut report: DiffReport,
    a: &[SeqRow],
    b: &[SeqRow],
    (lo, hi): (u64, u64),
    segment: Option<u64>,
    context_k: u64,
) -> DiffReport {
    let Some((seq, row_a, row_b)) = first_divergent_row(a, b, lo, hi) else {
        if let Some(segment) = segment {
            // The segment's digests disagreed yet every rendered row
            // matched: the divergence lives only in the canonical
            // binary encoding.
            report.verdict = Verdict::DigestOnly { segment };
        }
        return report;
    };
    report.context = context_window(a, b, seq, context_k);
    report.verdict = match (row_a, row_b) {
        (Some(row_a), Some(row_b)) => {
            let ((domain_a, name_a), (domain_b, name_b)) = (names(row_a), names(row_b));
            report.classification = classify(&domain_a, &domain_b);
            Verdict::DivergesAt {
                seq,
                segment: segment.unwrap_or(seq / crate::SEGMENT_EVENTS),
                domain_a,
                name_a,
                domain_b,
                name_b,
            }
        }
        // One side's stream ends where the other continues, every
        // shared row having matched: a strict prefix, not a conflict.
        (row_a, _) => Verdict::PrefixOf {
            shorter: if row_a.is_none() {
                report.label_a.clone()
            } else {
                report.label_b.clone()
            },
            common_events: seq,
        },
    };
    report
}

/// The one diff driver. Bisects the two checkpoint chains; when the
/// shared checkpoints agree the answer is identical-or-prefix and no
/// event row is read; otherwise reads the first divergent segment (±
/// `context_k`) of each side and names the row. A side with no
/// checkpoints is an empty capture, and the streams are then compared
/// row by row.
fn diff_sources(a: Source, b: Source, context_k: u64) -> io::Result<DiffReport> {
    let (chain_a, chain_b) = (a.checkpoints()?, b.checkpoints()?);
    let common = chain_a.len().min(chain_b.len());
    let (segment, probes) = first_mismatch(common, |i| {
        chain_a[i].chained != chain_b[i].chained || chain_a[i].end_seq != chain_b[i].end_seq
    });
    let mut report = DiffReport {
        label_a: a.label(),
        label_b: b.label(),
        verdict: Verdict::Identical,
        context: Vec::new(),
        classification: String::new(),
        checkpoints_compared: probes,
        bodies_read: 0,
        bisected: common > 0,
    };
    let (lo, hi) = match segment {
        Some(i) => (
            chain_a[i].start_seq,
            chain_a[i].end_seq.max(chain_b[i].end_seq),
        ),
        None if common == 0 => (0, u64::MAX),
        None => {
            if chain_a.len() != chain_b.len() {
                let (shorter, label) = if chain_a.len() < chain_b.len() {
                    (&chain_a, &report.label_a)
                } else {
                    (&chain_b, &report.label_b)
                };
                report.verdict = Verdict::PrefixOf {
                    shorter: label.clone(),
                    common_events: shorter[common - 1].end_seq + 1,
                };
            }
            return Ok(report);
        }
    };
    let (from, to) = (lo.saturating_sub(context_k), hi.saturating_add(context_k));
    let (rows_a, rows_b) = (a.rows(from, to)?, b.rows(from, to)?);
    report.bodies_read = (rows_a.len() + rows_b.len()) as u64;
    let segment = segment.map(|i| i as u64);
    Ok(diff_sides(
        report,
        &rows_a,
        &rows_b,
        (lo, hi),
        segment,
        context_k,
    ))
}

/// Diffs two JSONL captures on disk, reading each file's checkpoints
/// and then at most one segment of its event bodies. `context_k` is the
/// ± window of event rows reported around the divergence. A file that
/// cannot be read, or whose checkpoint chain is damaged, is an error
/// (`io::ErrorKind::InvalidData` for the latter), not a verdict.
pub fn diff_files(path_a: &Path, path_b: &Path, context_k: u64) -> io::Result<DiffReport> {
    diff_sources(Source::File(path_a), Source::File(path_b), context_k)
}

/// Diffs two in-process captures (ring sinks must have retained all
/// events for exact localization; evicted events diff as absent rows).
/// Checkpoint bisection narrows the compare to one segment exactly as
/// the file path does.
pub fn diff_reports(
    a: &TraceReport,
    b: &TraceReport,
    label_a: &str,
    label_b: &str,
    context_k: u64,
) -> DiffReport {
    diff_sources(
        Source::Report(a, label_a),
        Source::Report(b, label_b),
        context_k,
    )
    // Only a `Source::File` does I/O, and both sides here are reports.
    .expect("an in-process capture is read without I/O")
}

/// First height at which two chained block-checkpoint lists disagree
/// (`(height, digest)` pairs, ascending height, digests chained by
/// construction — a block hash commits to its parent). `None` when the
/// common prefix agrees and lengths match; a pure length difference
/// reports the first height present on one side only. This is the
/// replica-forensics hook: `ChainReplica` records one pair per applied
/// block, and a chaos harness localizes a fork to its height without
/// comparing block bodies.
pub fn first_divergent_height(a: &[(u64, Digest)], b: &[(u64, Digest)]) -> Option<u64> {
    let common = a.len().min(b.len());
    match first_mismatch(common, |i| a[i] != b[i]).0 {
        Some(i) => Some(a[i].0),
        None => a.get(common).or(b.get(common)).map(|entry| entry.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SinkKind, Stamp, TraceCtx};

    fn run(n: u64, skip: Option<u64>, extra: Option<u64>) {
        for i in 0..n {
            if Some(i) == skip {
                continue;
            }
            crate::event!("test", "tick", Stamp::Sim(i), TraceCtx::NONE, "i" => i);
            if Some(i) == extra {
                crate::event!("test", "intruder", Stamp::Sim(i), TraceCtx::NONE);
            }
        }
    }

    #[test]
    fn identical_reports_diff_identical() {
        let _g = crate::test_lock();
        let cap = crate::capture(SinkKind::Ring(usize::MAX));
        run(100, None, None);
        let a = cap.finish();
        let cap = crate::capture(SinkKind::Ring(usize::MAX));
        run(100, None, None);
        let b = cap.finish();
        assert_eq!(a.digest, b.digest);
        let d = diff_reports(&a, &b, "a", "b", 3);
        assert!(d.identical(), "{:?}", d.verdict);
    }

    #[test]
    fn in_process_divergence_is_localized() {
        let _g = crate::test_lock();
        let cap = crate::capture(SinkKind::Ring(usize::MAX));
        run(3000, None, None);
        let a = cap.finish();
        let cap = crate::capture(SinkKind::Ring(usize::MAX));
        run(3000, None, Some(2500));
        let b = cap.finish();
        let d = diff_reports(&a, &b, "a", "b", 3);
        // Event 2500's intruder lands at seq 2501 in run B.
        assert_eq!(d.divergent_seq(), Some(2501), "{:?}", d.verdict);
        assert!(d.bisected);
        assert_eq!(d.classification, "test");
        assert!(
            d.bodies_read <= 2 * (crate::SEGMENT_EVENTS + 16),
            "bisection must confine body reads to one segment, read {}",
            d.bodies_read
        );
        assert!(!d.context.is_empty());
    }

    #[test]
    fn first_divergent_height_bisects() {
        let dg = |x: u64| pds2_crypto::sha256::sha256(&x.to_le_bytes());
        let a: Vec<(u64, Digest)> = (1..=50).map(|h| (h, dg(h))).collect();
        let mut b = a.clone();
        assert_eq!(first_divergent_height(&a, &b), None);
        // Fork at height 33: every later digest differs too.
        for (h, d) in b.iter_mut().skip(32) {
            *d = dg(*h + 1000);
        }
        assert_eq!(first_divergent_height(&a, &b), Some(33));
        // Pure extension.
        let c: Vec<(u64, Digest)> = (1..=40).map(|h| (h, dg(h))).collect();
        assert_eq!(first_divergent_height(&a, &c), Some(41));
    }
}
