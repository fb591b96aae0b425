//! Deterministic span/event collector with a replay-checkable digest.
//!
//! One process-global collector guards a running SHA-256 chain: at
//! capture start the digest is seeded with a domain-separation tag,
//! and every event folds in as `d' = H(d ‖ encode(event))` where
//! `encode` is a canonical length-prefixed binary form (never the JSON
//! rendering). Event timestamps are [`Stamp`]s — simulated time, block
//! height or learning round — so the chain commits only to *logical*
//! behaviour and is bit-identical across reruns and worker counts
//! (`with_threads`).

use crate::jsonl::trailer_json;
use crate::sink::{ActiveSink, SinkKind};
use parking_lot::{Mutex, MutexGuard};
use pds2_crypto::sha256::{Digest, Sha256};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Logical timestamp of an event. Never the wall clock: wall time
/// would make every trace digest unique and the layer useless for
/// run-to-run diffing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// No meaningful time axis (pure state transitions).
    None,
    /// Simulated microseconds from the discrete-event net simulator.
    Sim(u64),
    /// Governance-chain block height.
    Block(u64),
    /// Learning round (gossip eval index, FedAvg round, …).
    Round(u64),
}

/// Typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Wide unsigned integer (token amounts are `u128`).
    U128(u128),
    /// Signed integer.
    I64(i64),
    /// Float; digested by IEEE-754 bit pattern, so NaN payloads and
    /// signed zeros are committed to exactly.
    F64(f64),
    /// Short label (contract phase names, message kinds, …).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u128> for Value {
    fn from(v: u128) -> Value {
        Value::U128(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Whether an event is a point or a span boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Standalone occurrence.
    Point,
    /// Span opened.
    SpanStart,
    /// Span closed.
    SpanEnd,
}

/// Causal context: which trace a unit of work belongs to and which span
/// caused it (Dapper/X-Trace style, in logical time).
///
/// A context is *minted* exactly where a workload enters the system —
/// contract/tx submission ([`new_trace`] via the chain) or a learning
/// experiment start — and *propagated* everywhere else: inside simulated
/// network envelopes, through block production/validation, and down the
/// marketplace lifecycle. `trace_id` is the span id of the trace's root
/// span, so ids stay deterministic and domain-separated; `parent_span`
/// is the span that causally produced the present work. The zero
/// context ([`TraceCtx::NONE`]) means "untraced": spans opened under it
/// still record start/end events but join no DAG.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Id of the trace (the root span's id), or 0 for untraced work.
    pub trace_id: u64,
    /// Span that causally precedes this work, or 0.
    pub parent_span: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };

    /// Whether this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Position in the capture's event stream (0-based).
    pub seq: u64,
    /// Point / span-start / span-end.
    pub kind: EventKind,
    /// Subsystem (`"chain"`, `"net"`, `"market"`, `"learning"`, …).
    pub domain: &'static str,
    /// Event name within the domain.
    pub name: &'static str,
    /// Owning span id, or 0 for free-standing points.
    pub span: u64,
    /// Trace this event belongs to (root span id), or 0 if untraced.
    pub trace: u64,
    /// Causal parent span, or 0 (roots and untraced events).
    pub parent: u64,
    /// Logical timestamp.
    pub stamp: Stamp,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Canonical binary form folded into the trace digest:
    /// length-prefixed, little-endian, tag bytes for every variant.
    /// The JSON rendering is *not* digested, so cosmetic JSONL changes
    /// can never silently change digests.
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(match self.kind {
            EventKind::Point => 0,
            EventKind::SpanStart => 1,
            EventKind::SpanEnd => 2,
        });
        out.push(self.domain.len() as u8);
        out.extend_from_slice(self.domain.as_bytes());
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.span.to_le_bytes());
        out.extend_from_slice(&self.trace.to_le_bytes());
        out.extend_from_slice(&self.parent.to_le_bytes());
        let (tag, t) = match self.stamp {
            Stamp::None => (0u8, 0u64),
            Stamp::Sim(t) => (1, t),
            Stamp::Block(h) => (2, h),
            Stamp::Round(r) => (3, r),
        };
        out.push(tag);
        out.extend_from_slice(&t.to_le_bytes());
        out.push(self.fields.len() as u8);
        for (key, value) in &self.fields {
            out.push(key.len() as u8);
            out.extend_from_slice(key.as_bytes());
            match value {
                Value::U64(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::U128(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::I64(v) => {
                    out.push(2);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::F64(v) => {
                    out.push(3);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(4);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

/// Number of events per digest segment. Small enough that diffing one
/// segment is cheap; large enough that the checkpoint list stays tiny
/// (a 1M-event capture produces ~1000 checkpoints).
pub const SEGMENT_EVENTS: u64 = 1024;

/// A sample of the running trace digest, taken after every
/// [`SEGMENT_EVENTS`]th event and after the last one.
///
/// The running digest is a hash chain, so `chained` at index `i` equal
/// on two captures certifies that their event prefixes through
/// `end_seq` are identical: two captures can be bisected to their first
/// divergent segment by comparing `chained` values — O(log n) digest
/// compares, no event bodies — and then only that segment's events
/// need inspecting (`crate::diff`). The last checkpoint's `chained` is
/// the capture's digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentCheckpoint {
    /// 0-based segment index.
    pub index: u64,
    /// First event `seq` the segment covers.
    pub start_seq: u64,
    /// Last event `seq` the segment covers (inclusive).
    pub end_seq: u64,
    /// The running trace digest after event `end_seq`.
    pub chained: Digest,
}

struct Collector {
    active: Option<ActiveSink>,
    digest: Digest,
    seq: u64,
    /// Next span sequence number per 32-bit domain hash; reset at
    /// capture start so span ids are identical across reruns.
    span_seqs: HashMap<u32, u32>,
    /// First `seq` of the current segment.
    seg_start: u64,
    /// Checkpoints of the closed segments, in order.
    segments: Vec<SegmentCheckpoint>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn collector() -> &'static Mutex<Collector> {
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            active: None,
            digest: Digest::ZERO,
            seq: 0,
            span_seqs: HashMap::new(),
            seg_start: 0,
            segments: Vec::new(),
        })
    })
}

fn seed_digest() -> Digest {
    let mut h = Sha256::new();
    h.update(b"pds2-obs-trace-v1");
    h.finalize()
}

/// FNV-1a 32-bit hash; picks the high half of span ids so ids from
/// different subsystems can never collide.
fn domain_hash(domain: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in domain.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    // Never 0: span id 0 means "no span".
    h.max(1)
}

/// Whether a capture is active. One relaxed atomic load — the whole
/// cost of the layer when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn fold(col: &mut Collector, event: &Event) {
    let mut bytes = Vec::with_capacity(96);
    event.encode(&mut bytes);
    let mut h = Sha256::new();
    h.update(col.digest.as_bytes());
    h.update(&bytes);
    col.digest = h.finalize();
    if let Some(sink) = col.active.as_mut() {
        sink.record(event);
    }
}

/// Closes the current segment: records the running digest as its
/// checkpoint (the JSONL sink writes a checkpoint row — *not* folded
/// into the digest, so sinks stay digest-invariant).
fn close_segment(col: &mut Collector) {
    let cp = SegmentCheckpoint {
        index: col.segments.len() as u64,
        start_seq: col.seg_start,
        end_seq: col.seq - 1,
        chained: col.digest,
    };
    if let Some(sink) = col.active.as_mut() {
        sink.write_row(|| cp.to_json());
    }
    col.segments.push(cp);
    col.seg_start = col.seq;
}

/// (span, trace, parent) id triple of one event.
#[derive(Clone, Copy)]
struct Ids {
    span: u64,
    trace: u64,
    parent: u64,
}

fn emit_locked(
    col: &mut Collector,
    kind: EventKind,
    domain: &'static str,
    name: &'static str,
    ids: Ids,
    stamp: Stamp,
    fields: Vec<(&'static str, Value)>,
) {
    if col.active.is_none() {
        return;
    }
    let event = Event {
        seq: col.seq,
        kind,
        domain,
        name,
        span: ids.span,
        trace: ids.trace,
        parent: ids.parent,
        stamp,
        fields,
    };
    col.seq += 1;
    fold(col, &event);
    if col.seq - col.seg_start >= SEGMENT_EVENTS {
        close_segment(col);
    }
}

/// Records a point event attached to a causal context: the event joins
/// `ctx`'s trace as a zero-duration child of `ctx.parent_span`; under
/// [`TraceCtx::NONE`] it is a free-standing point. Prefer the
/// [`event!`](crate::event!) macro, which skips field construction when
/// tracing is disabled.
pub fn emit(
    domain: &'static str,
    name: &'static str,
    stamp: Stamp,
    ctx: TraceCtx,
    fields: Vec<(&'static str, Value)>,
) {
    if !enabled() {
        return;
    }
    let ids = Ids {
        span: 0,
        trace: ctx.trace_id,
        parent: if ctx.is_none() { 0 } else { ctx.parent_span },
    };
    let mut col = collector().lock();
    emit_locked(&mut col, EventKind::Point, domain, name, ids, stamp, fields);
}

/// An open span. Close it with [`Span::finish`] to attach result
/// fields; dropping it closes with no fields.
#[must_use = "a span closes when dropped; hold it for the spanned region"]
pub struct Span {
    id: u64,
    trace: u64,
    parent: u64,
    domain: &'static str,
    name: &'static str,
    open: bool,
}

impl Span {
    /// The span's id (0 when tracing was disabled at open).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The causal context to hand to work this span causes: children
    /// opened (or events emitted) under it join this span's trace with
    /// this span as their parent. [`TraceCtx::NONE`] for untraced or
    /// inert spans.
    pub fn ctx(&self) -> TraceCtx {
        if self.trace == 0 {
            TraceCtx::NONE
        } else {
            TraceCtx {
                trace_id: self.trace,
                parent_span: self.id,
            }
        }
    }

    /// Closes the span with an explicit stamp and result fields.
    pub fn finish(mut self, stamp: Stamp, fields: Vec<(&'static str, Value)>) {
        self.close(stamp, fields);
    }

    fn close(&mut self, stamp: Stamp, fields: Vec<(&'static str, Value)>) {
        if !self.open {
            return;
        }
        self.open = false;
        if self.id == 0 || !enabled() {
            return;
        }
        let mut col = collector().lock();
        emit_locked(
            &mut col,
            EventKind::SpanEnd,
            self.domain,
            self.name,
            Ids {
                span: self.id,
                trace: self.trace,
                parent: self.parent,
            },
            stamp,
            fields,
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(Stamp::None, Vec::new());
    }
}

fn inert_span(domain: &'static str, name: &'static str) -> Span {
    Span {
        id: 0,
        trace: 0,
        parent: 0,
        domain,
        name,
        open: false,
    }
}

fn open_span(
    domain: &'static str,
    name: &'static str,
    stamp: Stamp,
    ctx: TraceCtx,
    root: bool,
    fields: Vec<(&'static str, Value)>,
) -> Span {
    if !enabled() {
        return inert_span(domain, name);
    }
    let mut col = collector().lock();
    if col.active.is_none() {
        return inert_span(domain, name);
    }
    let dh = domain_hash(domain);
    let seq = col.span_seqs.entry(dh).or_insert(0);
    *seq += 1;
    let id = ((dh as u64) << 32) | (*seq as u64);
    let (trace, parent) = if root {
        (id, 0)
    } else if ctx.is_none() {
        (0, 0)
    } else {
        (ctx.trace_id, ctx.parent_span)
    };
    emit_locked(
        &mut col,
        EventKind::SpanStart,
        domain,
        name,
        Ids {
            span: id,
            trace,
            parent,
        },
        stamp,
        fields,
    );
    Span {
        id,
        trace,
        parent,
        domain,
        name,
        open: true,
    }
}

/// Opens a span as a causal child of `ctx`, with start fields. Under
/// [`TraceCtx::NONE`] the span is *untraced*: it allocates a
/// domain-separated id and records its start and end, but joins no
/// causal DAG — propagation code can thread a maybe-empty context
/// without branching. Hand [`Span::ctx`] to everything this span
/// causes. When tracing is disabled the span is inert (id 0, no events
/// on close).
pub fn span(
    domain: &'static str,
    name: &'static str,
    stamp: Stamp,
    ctx: TraceCtx,
    fields: Vec<(&'static str, Value)>,
) -> Span {
    open_span(domain, name, stamp, ctx, false, fields)
}

/// Mints a new trace: opens a root span whose id becomes the trace id.
/// Call this exactly where a workload enters the system (tx submission,
/// workload submission, experiment start); everything caused by it
/// should be threaded [`Span::ctx`]. Inert when tracing is disabled.
pub fn new_trace(
    domain: &'static str,
    name: &'static str,
    stamp: Stamp,
    fields: Vec<(&'static str, Value)>,
) -> Span {
    open_span(domain, name, stamp, TraceCtx::NONE, true, fields)
}

/// Live handle to an active capture; [`finish`](Capture::finish) it to
/// get the [`TraceReport`]. Dropping without finishing still closes
/// the capture (report discarded).
pub struct Capture {
    finished: bool,
}

/// What a finished capture produced.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Hex SHA-256 digest of the canonical event stream. Equal digests
    /// ⇔ bit-identical traces.
    pub digest: String,
    /// Total events recorded (including any the ring evicted).
    pub events: u64,
    /// Retained events (ring sink only; newest-last).
    pub entries: Vec<Event>,
    /// Events the ring evicted to stay within capacity.
    pub evicted: u64,
    /// The JSONL file written (JSONL sink only; `None` when the file
    /// could not be created).
    pub path: Option<PathBuf>,
    /// Digest checkpoints, one per [`SEGMENT_EVENTS`]-event slice (the
    /// last may be partial). Equal chained values ⇔ equal prefixes;
    /// bisect them with [`crate::diff`] to localize a divergence.
    pub segments: Vec<SegmentCheckpoint>,
}

/// Starts a capture with the given sink. Panics if one is already
/// active — captures are process-global, so tests must serialize via
/// [`test_lock`].
pub fn capture(kind: SinkKind) -> Capture {
    let mut col = collector().lock();
    assert!(
        col.active.is_none(),
        "pds2-obs capture already active; serialize tests with obs::test_lock()"
    );
    col.active = Some(ActiveSink::open(kind));
    col.digest = seed_digest();
    col.seq = 0;
    col.span_seqs.clear();
    col.seg_start = 0;
    col.segments.clear();
    ENABLED.store(true, Ordering::Relaxed);
    Capture { finished: false }
}

fn finish_locked(col: &mut Collector) -> TraceReport {
    ENABLED.store(false, Ordering::Relaxed);
    if col.seq > col.seg_start {
        // Flush the trailing partial segment so the checkpoint list
        // covers every event.
        close_segment(col);
    }
    // Only a live `Capture` gets here, and only here is its sink taken.
    let mut sink = col.active.take().expect("a live capture has a sink");
    sink.write_row(|| trailer_json(col.segments.len(), &col.digest));
    let (entries, evicted, path) = sink.close();
    TraceReport {
        digest: col.digest.to_hex(),
        events: col.seq,
        entries,
        evicted,
        path,
        segments: std::mem::take(&mut col.segments),
    }
}

impl Capture {
    /// Ends the capture and returns digest, event count, and whatever
    /// the sink retained.
    pub fn finish(mut self) -> TraceReport {
        self.finished = true;
        let mut col = collector().lock();
        finish_locked(&mut col)
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.finished {
            let mut col = collector().lock();
            if col.active.is_some() {
                finish_locked(&mut col);
            }
        }
    }
}

/// Global lock for tests that assert counter deltas or trace digests.
/// The registry and collector are process-global, so concurrent tests
/// in one binary would otherwise interleave increments and captures.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.get_or_init(|| Mutex::new(())).lock()
}
