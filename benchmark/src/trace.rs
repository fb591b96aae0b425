//! Stage timing and the in-memory span trace.
//!
//! Every call into the program is made through [`Stages::time`], which
//! always accumulates the stage's wall time (the per-stage metrics and
//! `bench.trace.stage_coverage` need it) and, in a traced run, also
//! records a span. Spans stay in memory until [`Stages::write_trace`].

use crate::clock::{us_since, Stamp};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent id of a span that has none.
pub const ROOT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: u32,
    batch: u64,
}

#[derive(Default, Clone, Copy)]
pub struct StageTotal {
    pub us: f64,
    pub calls: u64,
}

pub struct Stages {
    t0: Stamp,
    /// Whether this run is a traced run at all.
    traced: bool,
    /// Whether spans are recorded right now (a traced run switches this
    /// off on alternate segments to measure its own overhead).
    recording: bool,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, StageTotal>,
}

impl Stages {
    pub fn new(traced: bool) -> Stages {
        Stages {
            t0: Stamp::now(),
            traced,
            recording: traced,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.traced && on;
    }

    /// Opens a batch span (a block, a lifecycle, a replay); stage spans
    /// name it as their parent. Returns [`ROOT`] when not recording.
    pub fn open_batch(&mut self, name: &'static str, batch: u64) -> u32 {
        if !self.recording {
            return ROOT;
        }
        let now = us_since(self.t0);
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: ROOT,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close_batch(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_us = us_since(self.t0);
        }
    }

    /// Times one stage call. Returns its result and its wall time in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Stamp::now();
        let out = f();
        let us = us_since(start);
        let total = self.totals.entry(name).or_default();
        total.us += us;
        total.calls += 1;
        if self.recording {
            let end_us = us_since(self.t0);
            self.spans.push(Span {
                name,
                start_us: end_us - us,
                end_us,
                parent,
                batch,
            });
        }
        (out, us)
    }

    pub fn total(&self, name: &str) -> StageTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean µs per call of a stage (0 if it never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.calls == 0 {
            0.0
        } else {
            t.us / t.calls as f64
        }
    }

    /// Share of `timed_us` that the named stages' spans cover.
    pub fn coverage(&self, stages: &[&str], timed_us: f64) -> f64 {
        stages.iter().map(|s| self.total(s).us).sum::<f64>() / timed_us
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as one JSON document: `{"workload", "spans": [
    /// {"id", "name", "start_us", "end_us", "parent", "batch"}, ...]}`.
    pub fn write_trace(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_us, s.end_us, s.batch
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
