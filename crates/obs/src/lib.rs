//! Deterministic observability layer (paper §6 "governance and
//! accountability", applied to the implementation itself).
//!
//! The marketplace promises consumers and providers an auditable record
//! of what the platform did with their workloads. This crate is the
//! in-repo analogue of that promise for the simulator: a tracing and
//! metrics substrate whose output is itself replay-checkable. Every
//! event stream folds into one running SHA-256 digest
//! ([`TraceReport::digest`]), and because events carry only *logical*
//! timestamps — simulated microseconds, block heights, learning rounds,
//! never the wall clock — a run's trace is bit-identical across reruns
//! and machines. Two runs agree iff their
//! digests agree, which turns "did this refactor change behaviour?" into
//! a string comparison.
//!
//! Three pieces:
//!
//! - **Metrics** ([`counter!`], [`gauge!`], [`histogram!`]): typed
//!   handles interned in a process-wide registry. A hot-path increment
//!   is one relaxed atomic add on a cached `&'static` handle. Counters
//!   are totals, deliberately *outside* the trace digest: parallel
//!   workers may bump them in nondeterministic interleavings (and a
//!   warm sigcache changes hit/miss splits) without breaking trace
//!   determinism.
//! - **Tracing** ([`event!`], [`span`]): structured events with a
//!   domain, a name, a [`Stamp`], and typed fields. Span IDs are
//!   domain-separated (high 32 bits hash the domain, low 32 bits a
//!   per-domain sequence reset at capture start) so IDs are stable
//!   and greppable. Emission is gated on one relaxed atomic load —
//!   when no capture is active a disabled site costs under 1% of the
//!   signature check it wraps (`bench_micro`'s `obs.disabled_site_ns`).
//! - **Sinks** ([`SinkKind`]): ring buffer for tests, JSONL writer for
//!   benches and offline analysis ([`jsonl`] owns the file format), and
//!   a digest-only null sink. The digest is folded in the collector
//!   *before* the sink sees the event, so ring, JSONL and null captures
//!   of the same run produce the same digest.
//!
//! Determinism contract: events must be emitted from serial code paths
//! only (the discrete-event simulator loop, block production and
//! validation entry points, marketplace calls, learning round loops).
//! Any other thread touches *counters* only.
//! Tests that assert counter deltas or digests take [`test_lock`] to
//! serialize against other tests in the same binary, since the
//! registry and collector are process-global.

#![forbid(unsafe_code)]

pub mod diff;
pub mod jsonl;
mod metrics;
pub mod report;
mod sink;
mod trace;
pub mod window;

pub use metrics::{
    counter_handle, gauge_handle, histogram_handle, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use sink::SinkKind;
pub use trace::{
    capture, emit, enabled, new_trace, span, test_lock, Capture, Event, EventKind,
    SegmentCheckpoint, Span, Stamp, TraceCtx, TraceReport, Value, SEGMENT_EVENTS,
};

/// Interns (once per call site) and returns a `&'static` [`Counter`].
///
/// ```
/// pds2_obs::counter!("chain.blocks_produced").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::counter_handle($name))
    }};
}

/// Interns (once per call site) and returns a `&'static` [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::gauge_handle($name))
    }};
}

/// Interns (once per call site) and returns a `&'static` [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::histogram_handle($name))
    }};
}

/// Emits a point event iff a capture is active, attached to a causal
/// context ([`TraceCtx`]): the event joins the context's trace as a
/// child of `ctx.parent_span`, or stands alone under
/// [`TraceCtx::NONE`]. Field values go through [`Value::from`], so
/// `u64`, `u128`, `i64`, `f64`, `&str` and `String` all work:
///
/// ```
/// use pds2_obs as obs;
/// let root = obs::new_trace("test", "job", obs::Stamp::Sim(0), vec![]);
/// obs::event!("test", "step", obs::Stamp::Sim(5), root.ctx(), "i" => 1u64);
/// obs::event!("net", "crash", obs::Stamp::Sim(42), obs::TraceCtx::NONE, "node" => 2u64);
/// ```
///
/// When tracing is disabled this is a single relaxed atomic load — the
/// field expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($domain:expr, $name:expr, $stamp:expr, $ctx:expr $(, $key:expr => $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $domain,
                $name,
                $stamp,
                $ctx,
                vec![$(($key, $crate::Value::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use crate as obs;
    use crate::{SinkKind, Stamp, TraceCtx};

    #[test]
    fn counters_and_gauges_roundtrip() {
        let _g = obs::test_lock();
        let c = obs::counter!("test.obs.counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);

        let g = obs::gauge!("test.obs.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.add(0.5);
        assert_eq!(g.get(), 3.0);

        let h = obs::histogram!("test.obs.hist");
        h.observe(3);
        h.observe(1000);
        let snap = obs::snapshot();
        let hs = &snap.histograms["test.obs.hist"];
        assert!(hs.count >= 2);
        assert!(hs.sum >= 1003);
        assert!(snap.counters["test.obs.counter"] >= 5);
    }

    #[test]
    fn same_events_same_digest_across_sinks() {
        let _g = obs::test_lock();
        let run = || {
            for i in 0..10u64 {
                obs::event!("test", "tick", Stamp::Sim(i), TraceCtx::NONE, "i" => i, "sq" => i * i);
            }
            let s = obs::span("test", "work", Stamp::Block(7), TraceCtx::NONE, Vec::new());
            obs::event!("test", "inner", Stamp::None, TraceCtx::NONE, "msg" => "hello");
            s.finish(Stamp::Block(8), vec![("gas", obs::Value::from(21u64))]);
        };

        let cap = obs::capture(SinkKind::Ring(1024));
        run();
        let ring = cap.finish();
        assert_eq!(ring.events, 13, "10 points + start + inner + end");
        assert_eq!(ring.entries.len(), 13);

        let path = std::env::temp_dir().join("pds2_obs_unit_test.jsonl");
        let cap = obs::capture(SinkKind::Jsonl(path.clone()));
        run();
        let jsonl = cap.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let event_lines = body
            .lines()
            .filter(|l| !l.starts_with("{\"checkpoint\"") && !l.starts_with("{\"segments\""))
            .count();
        assert_eq!(event_lines, 13);
        assert!(
            body.lines().any(|l| l.starts_with("{\"checkpoint\"")),
            "JSONL sink must flush the partial-segment checkpoint"
        );
        assert!(body.contains("\"domain\":\"test\""));

        let cap = obs::capture(SinkKind::Null);
        run();
        let null = cap.finish();

        assert_eq!(
            ring.digest, jsonl.digest,
            "sink choice must not change the digest"
        );
        assert_eq!(ring.digest, null.digest);
    }

    #[test]
    fn span_ids_are_domain_separated_and_reset_per_capture() {
        let _g = obs::test_lock();
        let ids = || {
            let cap = obs::capture(SinkKind::Ring(16));
            let a = obs::span("alpha", "s", Stamp::None, TraceCtx::NONE, Vec::new());
            let b = obs::span("beta", "s", Stamp::None, TraceCtx::NONE, Vec::new());
            let ids = (a.id(), b.id());
            drop(a);
            drop(b);
            cap.finish();
            ids
        };
        let (a1, b1) = ids();
        let (a2, b2) = ids();
        assert_eq!(a1, a2, "span ids must be stable across captures");
        assert_eq!(b1, b2);
        assert_ne!(a1 >> 32, b1 >> 32, "different domains, different high bits");
        assert_eq!(
            a1 & 0xffff_ffff,
            b1 & 0xffff_ffff,
            "per-domain sequences both start at 1"
        );
    }

    #[test]
    fn disabled_emission_is_invisible() {
        let _g = obs::test_lock();
        obs::event!("test", "ghost", Stamp::Sim(1), TraceCtx::NONE, "x" => 1u64);
        let cap = obs::capture(SinkKind::Ring(16));
        let empty = cap.finish();
        assert_eq!(empty.events, 0);
    }
}
