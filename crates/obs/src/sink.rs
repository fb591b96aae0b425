//! Pluggable event sinks.
//!
//! The collector folds every event into the trace digest *before*
//! handing it to the sink, so the digest is sink-invariant: a ring
//! capture, a JSONL capture and a digest-only [`SinkKind::Null`]
//! capture of the same run report the same digest
//! ([`TraceReport::digest`](crate::TraceReport)). Sinks only decide what,
//! if anything, is retained for later inspection.

use crate::trace::Event;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Which sink a capture writes to.
#[derive(Clone, Debug)]
pub enum SinkKind {
    /// Keep the last `n` events in memory; [`finish`](crate::Capture::finish)
    /// returns them. The test sink.
    Ring(usize),
    /// Append one JSON object per event to the given file. The bench /
    /// offline-analysis sink.
    Jsonl(PathBuf),
    /// Retain nothing; only the digest and event count survive.
    Null,
}

pub(crate) enum ActiveSink {
    Ring {
        cap: usize,
        buf: VecDeque<Event>,
        evicted: u64,
    },
    Jsonl {
        path: PathBuf,
        writer: BufWriter<std::fs::File>,
    },
    Null,
}

impl ActiveSink {
    pub(crate) fn open(kind: SinkKind) -> ActiveSink {
        match kind {
            SinkKind::Ring(cap) => ActiveSink::Ring {
                cap: cap.max(1),
                buf: VecDeque::new(),
                evicted: 0,
            },
            SinkKind::Jsonl(path) => match std::fs::File::create(&path) {
                Ok(file) => ActiveSink::Jsonl {
                    path,
                    writer: BufWriter::new(file),
                },
                // Like a failed write (`write_row`), a file that cannot be
                // created must not abort the run: the capture keeps its
                // digest and reports no path.
                Err(_) => ActiveSink::Null,
            },
            SinkKind::Null => ActiveSink::Null,
        }
    }

    pub(crate) fn record(&mut self, event: &Event) {
        match self {
            ActiveSink::Ring { cap, buf, evicted } => {
                if buf.len() >= *cap {
                    buf.pop_front();
                    *evicted += 1;
                }
                buf.push_back(event.clone());
            }
            ActiveSink::Jsonl { .. } => self.write_row(|| event.to_json()),
            ActiveSink::Null => {}
        }
    }

    /// Writes one row of the capture file; only the JSONL sink persists
    /// anything (and only then is the row rendered). Checkpoint and
    /// trailer rows come through here too: they are *not* folded into
    /// the trace digest, so this cannot break sink invariance, and
    /// in-process captures read them off the
    /// [`TraceReport`](crate::TraceReport) instead.
    pub(crate) fn write_row(&mut self, row: impl FnOnce() -> String) {
        if let ActiveSink::Jsonl { writer, .. } = self {
            // Disk errors must not abort a simulation mid-run; the
            // capture report's path lets callers re-check the file.
            let _ = writer.write_all(row().as_bytes());
            let _ = writer.write_all(b"\n");
        }
    }

    /// (retained events, evicted count, jsonl path) at capture end.
    pub(crate) fn close(self) -> (Vec<Event>, u64, Option<PathBuf>) {
        match self {
            ActiveSink::Ring { buf, evicted, .. } => (buf.into(), evicted, None),
            ActiveSink::Jsonl { path, mut writer } => {
                let _ = writer.flush();
                (Vec::new(), 0, Some(path))
            }
            ActiveSink::Null => (Vec::new(), 0, None),
        }
    }
}
